"""ConsumedThing: high-level interactions over a Thing Description.

``consume`` turns a parsed TD plus a transport into a handle exposing
read/write/invoke/subscribe calls. Every interaction runs through form
resolution and the codec of the form's content type; raw octets travel
through a form whose ``contentType`` is ``application/octet-stream``.

A connection policy governs session lifetime per device: stay connected,
or take a lease around every operation. The transport lends each thing a
lease on the link, and the policy takes and releases only that lease; a
live event subscription pins it against the policy's teardown.
"""

from __future__ import annotations

import operator
import threading
from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass, field
from enum import Enum

from .binding import GattMethod, WotOperation, resolve_form
from .codec import get_codec
from .errors import (
    BadArgument,
    InvalidPolicy,
    InvalidTd,
    MixedDevices,
    MultiPropertyError,
    NotConnected,
    OutOfRange,
    UnknownAffordance,
    shown,
)
from .td import (
    Affordance,
    Severity,
    ThingDescription,
    _not_well_formed,
    validate_td,
)
from .transport import TransportContract

Listener = Callable[[object], None]


class ConnectionPolicy(str, Enum):
    """When a :class:`ConsumedThing` takes and releases its lease on its device link.

    The thing holds at most one lease, and releases only its own: the
    transport ends the link when its last lease is released. So
    ``RECONNECT_PER_OPERATION`` cycles the radio link only when the thing
    held its only lease, and a link another thing holds a lease on stays
    up. A lease the thing already holds, as after an explicit ``connect()``,
    is used as it is, not released and taken again. While the thing has a
    live event subscription its lease is pinned: ``RECONNECT_PER_OPERATION``
    does not release it until the last subscription ends.
    """

    #: Connect on first use, stay connected until an explicit disconnect.
    KEEP_CONNECTED = "keep_connected"
    #: Take a lease before each operation unless the thing holds one; release
    #: it afterwards unless a live subscription pins it.
    RECONNECT_PER_OPERATION = "reconnect_per_operation"


# Bound once: every interaction compares against these, and a module name is
# cheaper to read than an enum member.
_KEEP_CONNECTED = ConnectionPolicy.KEEP_CONNECTED
_READPROPERTY = WotOperation.READPROPERTY
_WRITEPROPERTY = WotOperation.WRITEPROPERTY
_WRITE = GattMethod.WRITE

#: The singular of each TD affordance category, for error messages.
_SINGULAR = {"properties": "property", "actions": "action", "events": "event"}

#: The methods of ``TransportContract``, which a thing calls on its transport,
#: and a getter that fetches all of them from a transport in one call.
_CONTRACT_NAMES = sorted(TransportContract.__abstractmethods__)
_contract_methods = operator.attrgetter(*_CONTRACT_NAMES)


@dataclass(eq=False)
class Subscription:
    """One event subscription of a thing; equal only to itself.

    ``decode_failures`` counts the notifications that did not decode, and
    ``listener_failures`` the listener calls that raised. The delivery
    thread swallows both and counts them here.
    """

    thing: "ConsumedThing"
    event: str
    handle: object  # what the transport's ``subscribe`` returned
    decode_failures: int = field(default=0, init=False)
    listener_failures: int = field(default=0, init=False)

    @property
    def active(self) -> bool:
        """Whether the transport still delivers to this subscription."""
        return self.handle.active


def consume(td: ThingDescription, transport: TransportContract,
            policy: ConnectionPolicy = ConnectionPolicy.KEEP_CONNECTED
            ) -> "ConsumedThing":
    """Create a ConsumedThing; performs no I/O.

    The same as building :class:`ConsumedThing` directly: one path, which
    checks the TD, finds its device, then checks the policy and the
    transport, in that order.
    """
    return ConsumedThing(td, transport, policy)


def _single_device(td: ThingDescription) -> str:
    """The single device MAC that all of ``td``'s gatt:// forms name.

    ``td`` must be a parsed ``ThingDescription`` that validates cleanly:
    anything else, and error-severity diagnostics, raise ``InvalidTd``;
    warnings are tolerated. One walk over the forms, in plain loops, keeps
    the first device MAC and sets aside only what differs from it: another
    MAC, or None for a form whose href is not a gatt:// URI. So a TD whose
    forms all name one device costs no call. ``validate_td`` runs only when
    that walk meets a form with no gatt:// URI, or when the TD says the
    device is not connectable, the two sources of an error diagnostic.
    Forms that name several devices then raise ``MixedDevices``, and a TD
    with no gatt:// form ``InvalidTd``. A TD whose fields are not of the
    kinds a parsed one has raises ``InvalidTd``.
    """
    if not isinstance(td, ThingDescription):
        raise InvalidTd(f"consume takes a parsed ThingDescription, got {type(td).__name__}")
    device = None  # the first form's MAC
    others: set = set()  # the other MACs, and None for a form with no gatt:// URI
    try:
        for category in (td.properties, td.actions, td.events):
            for affordance in category.values():
                for form in affordance.forms:
                    uri = form.uri
                    if uri is None:
                        others.add(None)
                    elif device is None:
                        device = uri.device_id
                    elif uri.device_id != device:
                        others.add(uri.device_id)
        connectable = td.metadata.is_connectable
    except (AttributeError, TypeError) as exc:
        raise _not_well_formed(td, exc) from None
    if None in others or connectable is False:
        errors = [d for d in validate_td(td) if d.severity is Severity.ERROR]
        if errors:
            raise InvalidTd(f"TD {td.title!r} failed validation: "
                            + "; ".join(str(d) for d in errors), diagnostics=errors)
        others.discard(None)
    if others:
        raise MixedDevices(f"TD {td.title!r} references several devices: "
                           + ", ".join(sorted(others | {device})))
    if device is None:
        raise InvalidTd(f"TD {td.title!r} declares no gatt:// forms")
    return device


def _value_writer(category: str, op: WotOperation):
    """The method that encodes a value and writes it to an affordance.

    Built once per category, so that ``write_property`` and ``invoke_action``
    share one body and neither pays a helper frame per call. Resolves the
    form and its codec, checks the value's bounds, and runs the write as
    ``read_property`` runs its read.
    """
    def write(self, name: str, value) -> None:
        # The operation's table, picked with no getattr call: reading
        # ``self.__dict__`` would build the instance's dict on each new thing.
        requests = self._writes if op is _WRITEPROPERTY else self._invokes
        try:
            entry = requests.get(name)
        except TypeError:  # an unhashable name: _resolve raises
            entry = None
        affordance, request, codec = entry or self._resolve(requests, category, name, op)
        if affordance.minimum is not None or affordance.maximum is not None:
            self._check_bounds(affordance, value)
        uri, payload = request.uri, codec.encode(value, request.spec)
        with_response = request.method is _WRITE
        transport = self.transport
        if self.policy is not _KEEP_CONNECTED:
            return self._run(transport.write, uri, payload, with_response, self)
        try:
            transport.write(uri, payload, with_response, self)
        except NotConnected:
            self._recover(transport.write, uri, payload, with_response, self)
    return write


class ConsumedThing:
    """Client-side handle over one Bluetooth LE Thing.

    All forms of the TD must point at a single device; link and
    subscription changes are serialized so the connection policy stays
    coherent under concurrent callers. The thing finds that device when it
    is built, in one walk over the forms, and runs ``validate_td`` only when
    the walk or the TD's metadata shows an error is possible. Anything but a
    parsed TD, and a TD that fails validation or names no device, raises
    ``InvalidTd``; forms that name several devices raise ``MixedDevices``.
    ``consume`` builds the thing this way too: the two are one path.

    The thing is connected exactly when it holds a lease on its device's
    link, which the transport records and the thing keeps no copy of:
    ``connected`` asks the transport, passing the thing as the holder, and
    so does every transport call of the thing's. Things on one transport
    that target one device share its link, each through its own lease. A
    thing releases only its own lease, by a policy teardown, by its last
    ``unsubscribe_event`` or by ``disconnect()``; the link ends when its
    last lease is released, or when the transport drops it, with every
    lease on it. So no thing ends another thing's link or subscriptions,
    nor waits for another thing's delivery.

    The thing is disconnected, connected, or pinned: connected with at least
    one live subscription, which no policy teardown ends. The transport's
    subscription handle is the only record of whether a subscription is
    live, and ``Subscription.active`` reads it. A subscription ends through
    ``unsubscribe_event``, an explicit ``disconnect()``, which ends all of
    the thing's subscriptions, or with its link, when the transport drops
    that; it reads inactive as soon as the call that ended it returns. The
    end notice that the transport then gives the subscription's sink comes
    later, on the delivery thread, so the thing reads ``active`` instead:
    it forgets an ended subscription at its next pin check. Unsubscribing is
    an operation like any other: once ``unsubscribe_event`` has ended the
    thing's last live subscription, ``RECONNECT_PER_OPERATION`` releases the
    lease, under the thing's lock, so the link ends unless another thing
    holds one.

    Each (affordance, operation) pair is resolved to its form, request and
    codec on first use and reused after that, so the TD must not be mutated
    after ``consume``. The thing keeps one table per operation (read, write,
    invoke, subscribe), keyed by the affordance's name. Failed resolutions
    are not kept: they raise again on every call. A form whose content type
    no codec handles is one: it raises ``UnsupportedMediaType`` before any
    bounds check or transport call.

    Under ``KEEP_CONNECTED``, ``read_property``, ``write_property`` and
    ``invoke_action`` make their call first and ask the transport nothing
    else while the link is up: they take their resolved entry straight from
    their operation's table with one lookup by name, and call the
    transport's ``read`` or ``write`` themselves, with no lock of the
    thing's. Only when the call raises ``NotConnected``, because the thing
    holds no lease, do they take the lock, connect and make the call once
    more: connecting on first use, taking a lease on a link another thing
    opened and recovering a dropped link are one path. Every operation
    under ``RECONNECT_PER_OPERATION``, and ``subscribe_event`` under every
    policy, runs under the thing's lock and, while no live subscription pins
    the lease, first takes a lease if the thing holds none. A call that
    still raises ``NotConnected``, as when the link drops under it, takes
    the same path to connect and call once more.

    A teardown of an unpinned thing, by a policy or by ``disconnect()``,
    asks the transport once whether the thing holds a lease and releases it
    at most once.

    The transport is checked once, when the thing is built, after the TD
    and the policy: a transport that lacks a ``TransportContract`` method,
    or holds one as something not callable, raises ``BadArgument`` naming
    the transport's type and every such method, before any transport call.
    So the transport's methods must not change after that. An
    ``AttributeError`` or ``TypeError`` raised inside a transport method
    passes through as it is.

    ``policy`` is a ``ConnectionPolicy`` member or the value of one; any
    other value raises ``InvalidPolicy``, which is also a ``ValueError``,
    after the TD is checked and before the transport is.
    """

    def __init__(self, td: ThingDescription, transport: TransportContract,
                 policy: ConnectionPolicy = ConnectionPolicy.KEEP_CONNECTED):
        self._device_id = _single_device(td)
        self.td = td
        self.transport = transport
        if policy.__class__ is not ConnectionPolicy:
            try:
                policy = ConnectionPolicy(policy)
            except ValueError:
                raise InvalidPolicy(f"unknown connection policy {policy!r}") from None
        try:
            usable = all(map(callable, _contract_methods(transport)))
        except AttributeError:  # a method is missing
            usable = False
        if not usable:
            raise BadArgument(_transport_fault(transport))
        self.policy = policy
        self._lock = threading.RLock()
        # One request table per operation, keyed by affordance name.
        self._reads: dict = {}
        self._writes: dict = {}
        self._invokes: dict = {}
        self._subscribes: dict = {}
        # Live ones pin the link; _live() forgets those the transport ended.
        self._subscriptions: list[Subscription] = []

    # -- connection management

    @property
    def device_id(self) -> str:
        """The single MAC all gatt:// forms of this TD agree on."""
        return self._device_id

    @property
    def connected(self) -> bool:
        """Whether this thing holds a lease on its device's link.

        A link another thing on the transport holds a lease on does not count.
        """
        return self.transport.is_connected(self._device_id, self)

    def connect(self) -> None:
        """Connect to the TD's device and explore its GATT structure."""
        with self._lock:
            self._open()

    def _open(self) -> None:
        """Take a lease and explore GATT unless the thing holds one; under the lock.

        The transport is asked once whether the thing holds one.
        """
        device_id, transport = self._device_id, self.transport
        if not transport.is_connected(device_id, self):
            transport.connect(device_id, self)
            # Exploring the GATT structure is part of the connect time the paper
            # measures, though it yields nothing that the thing reads.
            try:
                transport.discover_gatt(device_id)
            except Exception:
                transport.disconnect(device_id, self)  # release the lease
                raise

    def _live(self) -> list[Subscription]:
        """The subscriptions still live; forgets the ended ones. Under the lock."""
        if self._subscriptions:
            self._subscriptions = [s for s in self._subscriptions if s.handle.active]
        return self._subscriptions

    def disconnect(self) -> None:
        """End the thing's subscriptions, then release its lease.

        A no-op when the thing holds no lease. A link the transport already
        dropped took the lease with it, so the next operation connects
        again. A running listener may call back into the thing meanwhile.
        """
        while True:
            with self._lock:
                live = self._subscriptions and self._live()
                if not live:
                    if self.transport.is_connected(self._device_id, self):
                        self.transport.disconnect(self._device_id, self)
                    return
            for subscription in live:
                self._end(subscription)

    # -- single-affordance interactions

    def read_property(self, name: str):
        try:
            entry = self._reads.get(name)
        except TypeError:  # an unhashable name: _resolve raises
            entry = None
        _, request, codec = entry or self._resolve(self._reads, "properties", name,
                                                   _READPROPERTY)
        transport = self.transport
        if self.policy is not _KEEP_CONNECTED:
            payload = self._run(transport.read, request.uri, self)
        else:
            try:
                payload = transport.read(request.uri, self)
            except NotConnected:
                payload = self._recover(transport.read, request.uri, self)
        return codec.decode(payload, request.spec)

    write_property = _value_writer("properties", _WRITEPROPERTY)
    invoke_action = _value_writer("actions", WotOperation.INVOKEACTION)

    def subscribe_event(self, name: str, listener: Listener) -> Subscription:
        """Register a listener for decoded notification values.

        The listener runs on the transport's delivery thread. Its exceptions,
        and values that fail to decode, are swallowed so one bad callback
        cannot kill the subscription; the subscription counts both. While
        the subscription is active it pins the thing's lease: reads and writes
        under ``RECONNECT_PER_OPERATION`` leave it held, and a second
        subscription reuses it. The end notice the transport gives when the
        link ends reaches neither the listener nor a counter. A listener that
        is not callable raises ``BadArgument`` before any transport call.
        """
        if not callable(listener):
            raise BadArgument(f"subscribe_event takes a callable listener, "
                              f"got {type(listener).__name__}")
        try:
            entry = self._subscribes.get(name)
        except TypeError:  # an unhashable name: _resolve raises
            entry = None
        _, request, codec = entry or self._resolve(self._subscribes, "events", name,
                                                   WotOperation.SUBSCRIBEEVENT)
        decode, spec = codec.decode, request.spec

        def subscribe() -> Subscription:
            subscription = Subscription(self, name, None)

            def sink(payload: bytes | None) -> None:
                try:
                    value = decode(payload, spec)
                except Exception:
                    # None, which no codec decodes, is the link's end notice:
                    # the handle reads inactive already.
                    if payload is not None:
                        subscription.decode_failures += 1
                    return
                try:
                    listener(value)
                except Exception:
                    subscription.listener_failures += 1

            subscription.handle = self.transport.subscribe(request.uri, sink, self)
            self._subscriptions.append(subscription)
            return subscription

        return self._run(subscribe)  # under the lock, so subscribe() records the pin

    def unsubscribe_event(self, subscription: Subscription) -> None:
        """End ``subscription`` on its own thing, whichever thing is called."""
        _check_argument(subscription, Subscription, "unsubscribe_event", "a Subscription")
        if subscription.active:
            subscription.thing._end(subscription)

    def _end(self, subscription: Subscription) -> None:
        # Not under the thing's lock: this waits for an in-flight delivery,
        # whose listener may call back into the thing. So disconnect() calls
        # it outside the lock too.
        self.transport.unsubscribe(subscription.handle)
        with self._lock:
            self._subscriptions = [s for s in self._subscriptions if s is not subscription]
            # Unsubscribing is an operation too: once the last live one has
            # ended, the policy releases the lease, as _run's finally does.
            if self.policy is not _KEEP_CONNECTED and not (self._subscriptions and self._live()):
                self.disconnect()  # with none live, this only releases the lease

    # -- multi-property interactions

    def read_all_properties(self) -> dict:
        return self._read_sequence(self.td.properties.keys())

    def read_multiple_properties(self, names: Iterable[str]) -> dict:
        """Read each named property, in order; ``names`` is a collection of names.

        A single name, a ``str``, raises ``BadArgument``, as does anything
        that is not iterable.
        """
        if isinstance(names, str):
            raise BadArgument("read_multiple_properties takes a collection of names, "
                              f"got the single name {names!r}")
        _check_argument(names, Iterable, "read_multiple_properties", "an iterable")
        return self._read_sequence(names)

    def write_multiple_properties(self, values: Mapping[str, object]) -> None:
        _check_argument(values, Mapping, "write_multiple_properties", "a mapping")
        self._write_sequence(values.items())

    def write_all_properties(self, values: Mapping[str, object]) -> None:
        """Write every property, in TD order, once every name is checked.

        A property with no value, then a value for a property the TD lacks,
        raises ``MultiPropertyError`` before the first write.
        """
        _check_argument(values, Mapping, "write_all_properties", "a mapping")
        properties = self.td.properties
        for name in properties:  # TD declaration order
            if name not in values:
                raise MultiPropertyError(name, {}, UnknownAffordance(
                    f"no value supplied for property {name!r}"))
        for extra in values:
            if extra not in properties:
                raise MultiPropertyError(extra, {}, self._unknown("properties", extra))
        self._write_sequence([(name, values[name]) for name in properties])

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

    # -- internals

    def _resolve(self, requests: dict, category: str, name: str, op: WotOperation):
        """Return ``(affordance, request, codec)`` for a name ``requests`` lacks.

        ``requests`` is the thing's table for ``op``, which keeps the entry;
        callers look there first and come here on a miss only. A form whose
        content type no codec handles raises ``UnsupportedMediaType`` and is
        not kept.
        """
        try:
            affordance = getattr(self.td, category).get(name)
        except TypeError:  # an unhashable name, which no affordance has
            affordance = None
        if affordance is None:
            raise self._unknown(category, name)
        request = resolve_form(affordance, op)
        # Callers racing on a first use all get the entry stored first; a
        # content type that no codec handles raises UnsupportedMediaType.
        return requests.setdefault(name, (affordance, request, get_codec(request.content_type)))

    def _unknown(self, category: str, name) -> UnknownAffordance:
        return UnknownAffordance(f"TD {self.td.title!r} has no "
                                 f"{_SINGULAR[category]} named {name!r}")

    def _check_bounds(self, affordance: Affordance, value) -> None:
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            return
        minimum, maximum = affordance.minimum, affordance.maximum
        if minimum is not None and value < minimum:
            raise OutOfRange(f"{affordance.name!r}: {shown(value)} below minimum {minimum}")
        if maximum is not None and value > maximum:
            raise OutOfRange(f"{affordance.name!r}: {shown(value)} above maximum {maximum}")

    def _run(self, call, *args):
        """Return ``call(*args)``, made under the thing's lock and its policy.

        While no live subscription pins the lease, the thing first takes a
        lease if it holds none, under every policy: one ``_open`` frame asks
        the transport once, then connects and explores GATT if need be, so the
        call is not made on a lease bound to fail. ``RECONNECT_PER_OPERATION``
        releases the lease afterwards, also when the call raises, from this
        frame, unless a live subscription pins it by then. A call that raises
        ``NotConnected``, as when the link drops under it, goes to
        ``_recover``. ``subscribe_event`` runs here under every policy;
        ``read_property`` and the writers only under
        ``RECONNECT_PER_OPERATION``, as they make a kept-link call themselves.
        """
        with self._lock:
            if not (self._subscriptions and self._live()):
                self._open()
            try:
                try:
                    return call(*args)
                except NotConnected:
                    return self._recover(call, *args)
            finally:
                if self.policy is not _KEEP_CONNECTED and not (
                        self._subscriptions and self._live()):
                    # disconnect()'s lease release, inlined: every operation
                    # under RECONNECT_PER_OPERATION runs it.
                    device_id, transport = self._device_id, self.transport
                    if transport.is_connected(device_id, self):
                        transport.disconnect(device_id, self)

    def _recover(self, call, *args):
        """Connect under the thing's lock and make ``call(*args)`` once more.

        For a call that raised ``NotConnected``: the thing held no lease, or
        lost it when the transport dropped the link, and with the link its
        subscriptions.
        """
        with self._lock:
            self._live()  # forget the subscriptions the link took
            self._open()
            return call(*args)


def _transport_fault(transport) -> str:
    """Name each contract method that ``transport`` lacks or holds as
    something not callable."""
    names = [name for name in _CONTRACT_NAMES if not callable(getattr(transport, name, None))]
    return (f"the transport, a {type(transport).__name__}, has no "
            f"{' or '.join(names)} method")


def _check_argument(value, kind: type, call: str, what: str) -> None:
    if not isinstance(value, kind):
        raise BadArgument(f"{call} takes {what}, got {type(value).__name__}")
