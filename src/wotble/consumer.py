"""ConsumedThing: high-level interactions over a Thing Description.

``consume`` turns a parsed TD plus a transport into a handle exposing
read/write/invoke/subscribe calls. Every interaction runs through form
resolution and the content-type codec; raw octets only cross the public API
via the explicit ``read_raw``/``write_raw`` escape hatch.

A connection policy governs session lifetime per device: stay connected,
reconnect around every operation, or drop the link after each operation.
A live event subscription pins the link against the policy's teardown.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterable, Mapping

from .binding import GattMethod, ResolvedRequest, WotOperation, resolve_form
from .codec import get_codec
from .errors import (
    InvalidTd,
    MixedDevices,
    MultiPropertyError,
    NotConnected,
    OutOfRange,
    UnknownAffordance,
    UnsupportedMediaType,
)
from .td import Affordance, Severity, ThingDescription, validate_td
from .transport import TransportContract

Listener = Callable[[object], None]


class ConnectionPolicy(str, Enum):
    """When a :class:`ConsumedThing` opens and drops its device link.

    While the thing has a live event subscription the link is pinned: the
    two teardown policies neither drop nor cycle it until the last
    subscription ends.
    """

    #: Connect on first use, stay connected until an explicit disconnect.
    KEEP_CONNECTED = "keep_connected"
    #: Establish a fresh connection for every operation and drop it after.
    RECONNECT_PER_OPERATION = "reconnect_per_operation"
    #: Reuse an existing connection but drop the link after each operation.
    DISCONNECT_AFTER = "disconnect_after"


# Bound once: every interaction compares against these, and a module name is
# cheaper to read than an enum member.
_KEEP_CONNECTED = ConnectionPolicy.KEEP_CONNECTED
_RECONNECT_PER_OPERATION = ConnectionPolicy.RECONNECT_PER_OPERATION
_READPROPERTY = WotOperation.READPROPERTY
_WRITEPROPERTY = WotOperation.WRITEPROPERTY
_WRITE = GattMethod.WRITE


@dataclass
class Subscription:
    thing: "ConsumedThing"
    event: str
    handle: object
    active: bool = True
    #: Calls of the listener now running; guarded by the thing's delivery lock.
    _listening: int = field(default=0, init=False, repr=False, compare=False)


def consume(td: ThingDescription, transport: TransportContract,
            policy: ConnectionPolicy = ConnectionPolicy.KEEP_CONNECTED
            ) -> "ConsumedThing":
    """Create a ConsumedThing; performs no I/O.

    The TD must validate cleanly: error-severity diagnostics raise
    ``InvalidTd``, warnings are tolerated.
    """
    errors = [d for d in validate_td(td) if d.severity is Severity.ERROR]
    if errors:
        raise InvalidTd(
            f"TD {td.title!r} failed validation: " + "; ".join(str(d) for d in errors),
            diagnostics=errors,
        )
    return ConsumedThing(td, transport, policy)


class ConsumedThing:
    """Client-side handle over one Bluetooth LE Thing.

    All forms of the TD must point at a single device; operations on the
    thing are serialized so the connection policy stays coherent under
    concurrent callers.

    The transport's link is the only record of whether the thing is
    connected; the thing keeps no copy. Things on one transport that target
    one device therefore share its link, and a link the transport drops is
    dropped for the thing too.

    The thing is disconnected, connected, or pinned: connected with at least
    one live subscription, which no policy teardown ends. A subscription
    ends through ``unsubscribe_event``, an explicit ``disconnect()``, which
    ends all of the thing's subscriptions, or an operation that finds the
    link dropped, which ends those that died with it; each sets its
    ``active`` to False.

    Each (affordance, operation) pair is resolved to its form, request and
    codec on first use and reused after that, so the TD must not be mutated
    after ``consume``. Failed resolutions are not kept: they raise again on
    every call.

    An operation makes its call first, so on a link that is already up it
    takes the thing's lock once and asks the transport nothing else. Only
    when the call raises ``NotConnected`` does it connect and make the call
    once more: connecting on first use and recovering a dropped link are
    one path. ``RECONNECT_PER_OPERATION`` alone, while unpinned, opens a
    fresh link before the call.
    """

    def __init__(self, td: ThingDescription, transport: TransportContract,
                 policy: ConnectionPolicy = ConnectionPolicy.KEEP_CONNECTED):
        self.td = td
        self.transport = transport
        self.policy = ConnectionPolicy(policy)
        self._lock = threading.RLock()
        self._device_id: str | None = None
        self._requests: dict = {}
        self._subscriptions: list[Subscription] = []  # live ones; they pin the link
        # Guards a subscription's active check in its sink against
        # disconnect(); held only while reading or setting those fields.
        self._delivery_lock = threading.Lock()

    # -- connection management

    @property
    def device_id(self) -> str:
        """The single MAC all gatt:// forms of this TD agree on."""
        with self._lock:
            if self._device_id is None:
                self._device_id = self._resolve_device_id()
            return self._device_id

    def _resolve_device_id(self) -> str:
        macs = {form.uri.device_id
                for category in (self.td.properties, self.td.actions, self.td.events)
                for affordance in category.values()
                for form in affordance.forms
                if form.uri is not None}  # validate_td reported the others
        if len(macs) > 1:
            raise MixedDevices(
                f"TD {self.td.title!r} references several devices: "
                + ", ".join(sorted(macs))
            )
        if not macs:
            raise InvalidTd(f"TD {self.td.title!r} declares no gatt:// forms")
        return macs.pop()

    @property
    def connected(self) -> bool:
        """Whether the transport holds a link to the TD's device."""
        return self.transport.is_connected(self._device_id or self.device_id)

    def connect(self) -> None:
        """Connect to the TD's device and explore its GATT structure."""
        with self._lock:
            if not self.connected:
                self._open()

    def _open(self) -> None:
        self.transport.connect(self.device_id)
        # Exploring the GATT structure is part of the connect time the paper
        # measures, though nothing reads the tree afterwards.
        try:
            self.transport.discover_gatt(self.device_id)
        except Exception:
            self.transport.disconnect(self.device_id)  # release the link
            raise

    def disconnect(self) -> None:
        """Tear the session down and end the thing's subscriptions.

        A no-op when not connected. A link the transport already dropped
        counts as disconnected, so the next operation connects again. A
        running listener may call back into the thing meanwhile.
        """
        # A subscription whose listener is running ends through _end, outside
        # the thing's lock, as that listener may call back into the thing. The
        # others end with the link, once no listener of theirs can start.
        while True:
            with self._lock:
                with self._delivery_lock:
                    running = [s for s in self._subscriptions if s._listening]
                    if not running:
                        for subscription in self._subscriptions:
                            subscription.active = False  # no listener starts now
                if not running:
                    if self.connected:
                        self.transport.disconnect(self.device_id)
                    self._subscriptions.clear()
                    return
            for subscription in running:
                self._end(subscription)

    # -- single-affordance interactions

    def read_property(self, name: str):
        _, request, codec = self._resolve("properties", name, _READPROPERTY)
        codec = _require_codec(request, codec)
        return codec.decode(self._run(self.transport.read, request.uri), request.spec)

    def write_property(self, name: str, value) -> None:
        self._write_value("properties", name, _WRITEPROPERTY, value)

    def invoke_action(self, name: str, value) -> None:
        self._write_value("actions", name, WotOperation.INVOKEACTION, value)

    def subscribe_event(self, name: str, listener: Listener) -> Subscription:
        """Register a listener for decoded notification values.

        The listener runs on the transport's delivery thread and its
        exceptions are swallowed so one bad callback cannot kill the
        subscription. While the subscription is active it pins the
        connection: reads and writes under a teardown policy leave the link
        up, and a second subscription reuses it.
        """
        _, request, codec = self._resolve("events", name, WotOperation.SUBSCRIBEEVENT)
        codec = _require_codec(request, codec)
        subscription = Subscription(thing=self, event=name, handle=None)

        def sink(payload: bytes) -> None:
            try:
                value = codec.decode(payload, request.spec)
            except Exception:
                return
            with self._delivery_lock:
                if not subscription.active:
                    return
                subscription._listening += 1
            try:
                listener(value)
            except Exception:
                pass
            finally:
                with self._delivery_lock:
                    subscription._listening -= 1

        def subscribe() -> Subscription:
            subscription.handle = self.transport.subscribe(request.uri, sink)
            self._subscriptions.append(subscription)
            return subscription

        return self._run(subscribe)

    def unsubscribe_event(self, subscription: Subscription) -> None:
        if subscription.active:
            self._end(subscription)

    def _end(self, subscription: Subscription) -> None:
        # Not under the thing's lock: this waits for an in-flight delivery,
        # whose listener may call back into the thing.
        self.transport.unsubscribe(subscription.handle)
        subscription.active = False
        with self._lock:
            # By identity: Subscription equality compares fields.
            self._subscriptions = [s for s in self._subscriptions
                                   if s is not subscription]

    # -- multi-property interactions

    def read_all_properties(self) -> dict:
        return self._read_sequence(self.td.properties.keys())

    def read_multiple_properties(self, names: Iterable[str]) -> dict:
        return self._read_sequence(names)

    def write_multiple_properties(self, values: Mapping[str, object]) -> None:
        self._write_sequence(values.items())

    def write_all_properties(self, values: Mapping[str, object]) -> None:
        done: dict = {}
        for name in self.td.properties:  # TD declaration order
            if name not in values:
                raise MultiPropertyError(
                    name, done,
                    UnknownAffordance(f"no value supplied for property {name!r}"),
                )
            try:
                self.write_property(name, values[name])
            except Exception as exc:
                raise MultiPropertyError(name, done, exc) from exc
            done[name] = values[name]
        for extra in values:
            if extra not in self.td.properties:
                raise MultiPropertyError(
                    extra, done,
                    UnknownAffordance(f"TD {self.td.title!r} has no property "
                                      f"named {extra!r}"),
                )

    def _read_sequence(self, names: Iterable[str]) -> dict:
        results: dict = {}
        for name in names:
            try:
                results[name] = self.read_property(name)
            except Exception as exc:
                raise MultiPropertyError(name, results, exc) from exc
        return results

    def _write_sequence(self, pairs) -> None:
        done: dict = {}
        for name, value in pairs:
            try:
                self.write_property(name, value)
            except Exception as exc:
                raise MultiPropertyError(name, done, exc) from exc
            done[name] = value

    # -- raw escape hatch

    def read_raw(self, name: str) -> bytes:
        """Escape hatch: read a property's octets without decoding."""
        _, request, _ = self._resolve("properties", name, _READPROPERTY)
        return self._run(self.transport.read, request.uri)

    def write_raw(self, name: str, payload: bytes,
                  with_response: bool | None = None) -> None:
        """Escape hatch: write raw octets, bypassing the codec."""
        _, request, _ = self._resolve("properties", name, _WRITEPROPERTY)
        if with_response is None:
            with_response = request.method is _WRITE
        self._run(self.transport.write, request.uri, payload, with_response)

    # -- internals

    def _resolve(self, category: str, name: str, op: WotOperation):
        """Return ``(affordance, request, codec)``, resolved on first use.

        The codec is None when no codec handles the form's content type: the
        raw escape hatch still works, and decoding paths raise on each call.
        """
        key = (category, name, op)
        entry = self._requests.get(key)
        if entry is None:
            affordance = getattr(self.td, category).get(name)
            if affordance is None:
                raise UnknownAffordance(f"TD {self.td.title!r} has no "
                                        f"{category[:-1]} named {name!r}")
            request = resolve_form(affordance, op)
            try:
                codec = get_codec(request.content_type)
            except UnsupportedMediaType:
                codec = None
            # Callers racing on a first use all get the entry stored first.
            entry = self._requests.setdefault(key, (affordance, request, codec))
        return entry

    def _write_value(self, category: str, name: str, op: WotOperation, value) -> None:
        affordance, request, codec = self._resolve(category, name, op)
        self._check_bounds(affordance, value)
        payload = _require_codec(request, codec).encode(value, request.spec)
        self._run(self.transport.write, request.uri, payload, request.method is _WRITE)

    def _check_bounds(self, affordance: Affordance, value) -> None:
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            return
        if affordance.minimum is not None and value < affordance.minimum:
            raise OutOfRange(f"{affordance.name!r}: {value} below minimum "
                             f"{affordance.minimum}")
        if affordance.maximum is not None and value > affordance.maximum:
            raise OutOfRange(f"{affordance.name!r}: {value} above maximum "
                             f"{affordance.maximum}")

    def _run(self, call, *args):
        """Return ``call(*args)``, made under the connection policy.

        A call that raises ``NotConnected`` had no effect: the thing was
        never connected or lost its link, and with the link its
        subscriptions. Those end, the thing connects, and the call is made
        once more. Unless a live subscription pins the link,
        ``RECONNECT_PER_OPERATION`` replaces it with a fresh one first, and
        both teardown policies drop it afterwards, also when the call raises.
        """
        with self._lock:
            if self.policy is _RECONNECT_PER_OPERATION and not self._subscriptions:
                self.disconnect()
                self._open()  # the link is down: spare a call bound to fail
            try:
                try:
                    return call(*args)
                except NotConnected:
                    if self._subscriptions:
                        self.disconnect()
                    self.connect()
                    return call(*args)
            finally:
                if self.policy is not _KEEP_CONNECTED and not self._subscriptions:
                    self.disconnect()


def _require_codec(request: ResolvedRequest, codec):
    """The resolved codec, or ``UnsupportedMediaType`` raised anew."""
    return codec if codec is not None else get_codec(request.content_type)
