"""GATT central transport contract and the in-process simulated backend.

:class:`TransportContract` is the portable surface every backend implements.
The shipped backend is :class:`SimTransport`, a central talking to a
:class:`SimNetwork` of simulated peripherals. The simulation models the one
latency that dominates connection establishment: a scanning central first
observes a peripheral after a delay uniformly distributed over its
advertising interval, plus a configurable fixed processing delay. All waits
go through a pluggable clock, so tests can run on virtual time.

Any other backend implements :class:`TransportContract` and is handed to
``consume`` directly; :func:`open_transport` builds the simulated one from a
``sim:<config path>`` spec.
"""

from __future__ import annotations

import abc
import json
import random
import threading
import uuid as uuidlib
from pathlib import Path
from queue import SimpleQueue
from types import MappingProxyType
from typing import Callable, Iterable, Mapping

from .binding import GattMethod
from .clock import RealClock
from .codec import MAX_PAYLOAD_OCTETS
from .errors import (
    BadValue,
    Busy,
    DuplicateDevice,
    InvalidConfig,
    MethodNotPermitted,
    NoSuchAttribute,
    NotConnectable,
    NotConnected,
    NotFound,
    Timeout,
    TransportUnavailable,
    UriError,
    ValueTooLong,
    expect,
)
from .uris import _CACHE_SIZE, GattUri, normalize_mac, parse_uuid

Sink = Callable[[bytes], None]

# Bound once for the per-call checks; a module name is cheaper to read than
# an enum member.
_READ = GattMethod.READ
_WRITE = GattMethod.WRITE
_WRITE_WITHOUT_RESPONSE = GattMethod.WRITE_WITHOUT_RESPONSE
_NOTIFY = GattMethod.NOTIFY


class TransportContract(abc.ABC):
    """Abstract GATT central: exactly what a ``ConsumedThing`` calls.

    The transport owns each link and lends it out through counted leases.
    A lease is held by a ``holder``, at most one per holder and link; a
    ``ConsumedThing`` passes itself, and without a holder the central holds
    its own. The leases are the only record of a link that a consumer reads:

    * ``connect`` takes the holder's lease, bringing the link up first when
      it is down; ``is_connected`` says whether the holder holds one;
    * ``read``, ``write`` and ``subscribe`` run on the holder's lease. They
      raise :class:`NotConnected` before any effect when it holds none, so
      the call may be made again once connected;
    * ``disconnect`` releases the holder's lease and no other: the link ends
      when its last lease is released. The transport may also drop a link,
      with every lease on it; ``disconnect`` without a holder does so;
    * when a link ends, every subscription on it ends, and its sink is told
      once, after its last delivery, by a call with ``None``: the end
      notice, as BlueZ signals ``Connected`` turning false. ``unsubscribe``
      gives none. Nothing but that notice reaches a sink after
      ``unsubscribe`` or the ``disconnect`` that ended its link returns;
    * the handle ``subscribe`` returns has an ``active`` attribute, which
      is False once the subscription has ended, however it ended: through
      ``unsubscribe``, or with its link. It is the only record of whether a
      subscription is live that a consumer reads.

    ``discover_gatt`` needs the link up, whoever holds a lease on it. A
    write with response completes only after the server confirms, without
    response on send. A ``ConsumedThing`` checks when it is built that each
    of these methods is there and callable.
    """

    @abc.abstractmethod
    def connect(self, device_id: str, holder=None) -> None: ...

    @abc.abstractmethod
    def disconnect(self, device_id: str, holder=None) -> None: ...

    @abc.abstractmethod
    def is_connected(self, device_id: str, holder=None) -> bool: ...

    @abc.abstractmethod
    def discover_gatt(self, device_id: str) -> None: ...

    @abc.abstractmethod
    def read(self, uri: GattUri, holder=None) -> bytes:
        """The characteristic's value as ``bytes``, which the caller may keep."""

    @abc.abstractmethod
    def write(self, uri: GattUri, payload: bytes, with_response: bool, holder=None) -> None: ...

    @abc.abstractmethod
    def subscribe(self, uri: GattUri, sink: Sink, holder=None): ...

    @abc.abstractmethod
    def unsubscribe(self, handle) -> None: ...


# --- simulated peripherals ------------------------------------------------------


class SimCharacteristic:
    """One characteristic: its current value and its allowed methods.

    Like a BlueZ characteristic's ``Value``, ``value`` is what the last
    write left there; no history of writes is kept. ``value`` and each
    entry of ``notify_source``, an iterable, must be ``bytes``,
    ``bytearray`` or ``memoryview`` of at most ``MAX_PAYLOAD_OCTETS``, else
    :class:`InvalidConfig`; each is kept as ``bytes``. Each ``allowed``
    entry must be a :class:`GattMethod` or its value, else
    :class:`InvalidConfig`; each is kept as the member.
    """

    def __init__(self, value: bytes = b"", allowed=(GattMethod.READ,),
                 notify_source: tuple[bytes, ...] = ()):
        try:
            self.value = _octets(value)
            if not isinstance(notify_source, Iterable):
                raise BadValue(f"notify_source must hold payloads, got {notify_source!r}")
            self.notify_source = tuple(map(_octets, notify_source))
            try:
                self.allowed = frozenset([GattMethod(method) for method in allowed])
            except (TypeError, ValueError):  # not iterable, or not a method
                raise BadValue(f"allowed must hold GATT methods, got {allowed!r}") from None
        except (BadValue, ValueTooLong) as exc:
            raise InvalidConfig(f"characteristic: {exc}") from None
        self._notify_cursor = 0


class SimPeripheral:
    """Definition plus runtime state of one simulated device.

    ``services`` is a read-only mapping from service UUID to characteristic
    UUID to :class:`SimCharacteristic`. It is fixed once the peripheral is
    defined, so the index by canonical ``gatt://`` text that serves the
    transport's per-call lookup is built here once.

    ``advertising_interval_ms`` must be a finite number > 0 and
    ``connectable`` a bool, else :class:`InvalidConfig`, with the messages a
    config file's device gets. ``services`` must map each service
    ``uuid.UUID`` to a mapping of characteristic ``uuid.UUID`` to
    :class:`SimCharacteristic`, else :class:`InvalidConfig`.

    ``connected_by`` is the :class:`SimTransport` holding the device's single
    link, or None, and ``leases`` holds each holder of a lease on that link
    as a key: it is empty exactly when ``connected_by`` is None.
    A central's ``connect`` and ``disconnect`` change both, under the
    network's lock.
    """

    def __init__(self, device_id: str, advertising_interval_ms: float,
                 connectable: bool = True, services: dict | None = None):
        self.device_id = normalize_mac(device_id)
        expect(advertising_interval_ms, float, InvalidConfig,
               "device %s: advertisingIntervalMs", self.device_id)
        if advertising_interval_ms <= 0:
            raise InvalidConfig(f"device {self.device_id}: advertisingIntervalMs must be > 0, "
                                f"got {advertising_interval_ms!r}")
        self.advertising_interval_ms = float(advertising_interval_ms)
        self.connectable = expect(connectable, bool, InvalidConfig,
                                  "device %s: connectable", self.device_id)
        services = {} if services is None else services
        if not isinstance(services, Mapping) or not all(
                isinstance(svc, uuidlib.UUID) and isinstance(chars, Mapping) and all(
                    isinstance(key, uuidlib.UUID) and isinstance(char, SimCharacteristic)
                    for key, char in chars.items()) for svc, chars in services.items()):
            raise InvalidConfig(f"device {self.device_id}: services must map service UUIDs to "
                                f"mappings of UUID to SimCharacteristic, got {services!r}")
        self.services: Mapping = MappingProxyType(dict(services))
        self.connected_by, self.leases = None, {}
        self._by_uri: dict[str, SimCharacteristic] = {
            GattUri(self.device_id, svc, char).text: chr_obj
            for svc, chars in self.services.items()
            for char, chr_obj in chars.items()
        }

    def characteristic(self, service: uuidlib.UUID, characteristic: uuidlib.UUID
                       ) -> SimCharacteristic:
        try:
            return self.services[service][characteristic]
        except KeyError:
            raise NoSuchAttribute(
                f"{self.device_id} has no characteristic {characteristic} "
                f"under service {service}"
            ) from None


class _Subscription:
    def __init__(self, uri: GattUri, sink: Sink, transport: "SimTransport",
                 char: SimCharacteristic):
        self.uri = uri
        self.char = char  # its key in the registry
        self.sink = sink
        self.transport = transport
        self.active = True
        # Held while the sink runs, so unsubscribe can wait that call out.
        self.delivery = threading.Lock()


class SimNetwork:
    """A set of simulated peripherals sharing one clock and RNG.

    Any number of :class:`SimTransport` centrals may share it; each
    peripheral accepts a single connection at a time. Notification delivery
    runs on a dedicated worker thread, never on the subscriber's calling
    thread.

    Lifecycle:

    * The network holds the device definitions, the seeded RNG, the
      subscription registry and delivery. A :class:`SimTransport`'s
      ``connect`` and ``disconnect`` change a device's ``connected_by`` and
      ``leases`` themselves, under the network's lock.
    * Only :meth:`subscribe` and :meth:`unsubscribe` change the
      subscription registry.
    * The subscription registry holds live subscriptions only, keyed by
      their :class:`SimCharacteristic`: unsubscribing removes the entry,
      and nothing is delivered to it after ``unsubscribe`` returns, not even
      a value already queued.
    * :meth:`emit` resolves each spelling of a characteristic's address
      once; see its docstring.
    * With ``auto_notify`` a subscription's scripted values are queued in
      the same critical section that registers it, for that subscriber only.
    * The end of a link ends every subscription on it in one critical
      section and queues each one's end notice, which is delivered after
      every value delivered to it; unsubscribing one of them afterwards is
      a no-op. A subscription's handle keeps its sink only while a call of
      it is left to make; see :meth:`unsubscribe`. A subscription is
      registered only while its central holds the link, checked under the
      lock, so none outlives the link it was made on.
    * :meth:`discovery_delay_s` is the one draw from the seeded RNG, made
      once per discovery. It takes no lock: the draw is a single C call,
      atomic under the GIL, so concurrent connects never share or skip one.
    * :meth:`close` (also called on leaving a ``with`` block) lets the
      delivery thread hand out what was queued before it, then stops and
      joins the thread. It is idempotent; later ``subscribe`` and
      :meth:`emit` calls raise :class:`TransportUnavailable`, and an end
      notice queued later is never delivered.

    ``sink_failures`` counts the sink calls that raised; the delivery thread
    swallows those, so that one failing sink does not stall the others.

    Each of the five latency knobs (milliseconds) must be a finite number
    >= 0; any other value raises :class:`InvalidConfig` before the delivery
    thread starts.
    """

    def __init__(self, clock=None, seed: int | None = None, auto_notify: bool = True,
                 processing_delay_ms: float = 0.0, connect_setup_ms: float = 0.0,
                 read_latency_ms: float = 0.0, write_latency_ms: float = 0.0,
                 disconnect_latency_ms: float = 0.0):
        self.clock = clock if clock is not None else RealClock()
        self.auto_notify = auto_notify
        self.processing_delay_ms = _latency(processing_delay_ms, "processing_delay_ms")
        self.connect_setup_ms = _latency(connect_setup_ms, "connect_setup_ms")
        self.read_latency_ms = _latency(read_latency_ms, "read_latency_ms")
        self.write_latency_ms = _latency(write_latency_ms, "write_latency_ms")
        self.disconnect_latency_ms = _latency(disconnect_latency_ms, "disconnect_latency_ms")
        self._rng = random.Random(seed)
        self._peripherals: dict[str, SimPeripheral] = {}
        self._lock = threading.RLock()
        self._subscriptions: dict[SimCharacteristic, list[_Subscription]] = {}
        #: (device_id, service, characteristic) as emit's caller spelled them.
        self._routes: dict[tuple, SimCharacteristic] = {}
        self._queue: SimpleQueue = SimpleQueue()
        self._closed = False
        self.sink_failures = 0
        self._worker = threading.Thread(target=self._deliver_loop,
                                        name="wotble-sim-delivery", daemon=True)
        self._worker.start()

    def __enter__(self) -> "SimNetwork":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- definition

    def define_peripheral(self, peripheral: SimPeripheral) -> SimPeripheral:
        if not isinstance(peripheral, SimPeripheral):
            raise InvalidConfig(f"define_peripheral takes a SimPeripheral, got {peripheral!r}")
        with self._lock:
            if peripheral.device_id in self._peripherals:
                raise DuplicateDevice(f"device {peripheral.device_id} already defined")
            self._peripherals[peripheral.device_id] = peripheral
        return peripheral

    def peripheral(self, device_id: str) -> SimPeripheral:
        mac = normalize_mac(device_id)
        with self._lock:
            try:
                return self._peripherals[mac]
            except KeyError:
                raise NotFound(f"no simulated device {mac}") from None

    def peripherals(self) -> list[SimPeripheral]:
        with self._lock:
            return list(self._peripherals.values())

    def characteristic(self, device_id: str, service, characteristic) -> SimCharacteristic:
        svc, chr_ = _as_uuid(service), _as_uuid(characteristic)
        return self.peripheral(device_id).characteristic(svc, chr_)

    # -- discovery latency model

    def discovery_delay_s(self, peripheral: SimPeripheral) -> float:
        """The wait before a scan sees ``peripheral``: one draw, in seconds.

        The phase is ``interval * random()``, bit for bit what
        ``uniform(0.0, interval)`` returns. Its one C call is atomic under
        the GIL, so concurrent connects need no lock to take each draw once.
        """
        phase_ms = peripheral.advertising_interval_ms * self._rng.random()
        return (phase_ms + self.processing_delay_ms) / 1000.0

    # -- notifications

    def _require_open(self) -> None:
        if self._closed:
            raise TransportUnavailable("the simulated network is closed")

    def subscribe(self, uri: GattUri, sink: Sink, central,
                  char: SimCharacteristic) -> _Subscription:
        """Register a live subscription of ``central`` to ``uri``.

        ``central`` must still hold the device's link when the subscription
        is registered, else ``NotConnected``: a disconnect that lands after
        the caller's own check cannot leave a subscription behind. With
        ``auto_notify`` the characteristic's script is queued in the same
        critical section, for this subscriber alone.
        """
        sub = _Subscription(uri, sink, central, char)
        with self._lock:
            self._require_open()
            if self._peripherals[uri.device_id].connected_by is not central:
                raise NotConnected(f"not connected to {uri.device_id}")
            self._subscriptions.setdefault(char, []).append(sub)
            if self.auto_notify:
                for payload in char.notify_source:
                    self._queue.put((sub, payload))
        return sub

    def unsubscribe(self, sub: _Subscription, notice: bool = False) -> None:
        """End ``sub``: nothing is delivered to it once this returns.

        Waits out a delivery to ``sub`` that is running, unless called on
        the delivery thread itself: the sink runs under ``sub.delivery``,
        which is not re-entrant. Must then not be called holding the network
        lock. With ``notice``, as when its link ends, a live ``sub`` gets
        its end notice instead of that wait, and the call may hold the lock:
        the delivery thread skips the values queued to an ended
        subscription, so the notice is its sink's last call, made once a
        running delivery is over.

        The handle drops its sink once no call of it is left to make: here,
        when this call ended ``sub`` without a notice and waited out a
        running delivery, or on the delivery thread, once it has made the end
        notice's call. So what the sink holds is freed by reference counting,
        not left to the cyclic collector, and the sink is never dropped while
        the end notice is queued.
        """
        with self._lock:
            ended = sub.active
            if ended:
                sub.active = False
                live = self._subscriptions[sub.char]
                live.remove(sub)
                if not live:
                    del self._subscriptions[sub.char]
                if notice:
                    self._queue.put((sub, None))
        if not notice and threading.get_ident() != self._worker.ident:
            with sub.delivery:
                pass
        if ended and not notice:
            sub.sink = None  # no call of it is left: free what the sink holds

    def emit(self, device_id: str, service, characteristic, payload: bytes) -> None:
        """Deliver one notification value to all active subscribers.

        The address is resolved once per spelling: the network keeps the
        characteristic each ``(device_id, service, characteristic)`` that
        succeeded named, when all three are ``str`` or ``uuid.UUID``, and
        empties that table when it is full. A failure is never kept, so it
        is raised anew on every call, in this order: ``BadUuid``, then
        ``BadDeviceId`` or ``NotFound``, then ``NoSuchAttribute``. The
        characteristic's current ``allowed`` is checked on every call
        (``MethodNotPermitted``), and so is the payload: ``bytes``,
        ``bytearray`` or ``memoryview`` (else ``BadValue``) of at most
        ``MAX_PAYLOAD_OCTETS`` (else ``ValueTooLong``), copied to ``bytes``.
        """
        try:
            char = self._routes[device_id, service, characteristic]
        except (KeyError, TypeError):  # not resolved yet, or unhashable
            char = self._route(device_id, service, characteristic)
        if _NOTIFY not in char.allowed:
            raise MethodNotPermitted("characteristic does not allow notify")
        payload = _octets(payload)
        # Queued under the lock, so nothing lands behind close()'s stop marker.
        with self._lock:
            self._require_open()
            for sub in self._subscriptions.get(char, ()):
                self._queue.put((sub, payload))

    def _route(self, device_id, service, characteristic) -> SimCharacteristic:
        """Resolve an address for :meth:`emit`; keeps it when it succeeds."""
        char = self.characteristic(device_id, service, characteristic)
        if (device_id.__class__ is str and service.__class__ in _ROUTE_KEY_TYPES
                and characteristic.__class__ in _ROUTE_KEY_TYPES):
            if len(self._routes) >= _CACHE_SIZE:
                self._routes.clear()
            self._routes[device_id, service, characteristic] = char
        return char

    def emit_next(self, device_id: str, service, characteristic) -> bytes | None:
        """Deliver the next scripted value; None when the script is exhausted.

        A value that :meth:`emit` refuses stays next in the script.
        """
        char = self.characteristic(device_id, service, characteristic)
        with self._lock:
            cursor = char._notify_cursor
            if cursor >= len(char.notify_source):
                return None
            payload = char.notify_source[cursor]
            self.emit(device_id, service, characteristic, payload)
            char._notify_cursor = cursor + 1
        return payload

    def _deliver_loop(self) -> None:
        get = self._queue.get
        while True:
            item = get()
            if item is None:
                return
            sub, payload = item
            with sub.delivery:
                if not sub.active and payload is not None:  # None: the end notice
                    continue
                try:
                    sub.sink(payload)
                except Exception:
                    self.sink_failures += 1  # must not stall delivery to others
                if payload is None:  # the end notice was its last call
                    sub.sink = None

    def close(self) -> None:
        """Stop the delivery thread for good; a second call is a no-op.

        Values queued before the call are still delivered. Returns once the
        thread has exited, except when a sink calls it on that thread.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._queue.put(None)
        if threading.current_thread() is not self._worker:
            self._worker.join()


class SimTransport(TransportContract):
    """A simulated central on a :class:`SimNetwork`.

    The central holds a device's link exactly when the device's
    ``connected_by`` is this transport, and a holder holds a lease on it
    exactly when it is also a key of the device's ``leases``;
    neither is recorded anywhere else. Only this transport's ``connect``
    and ``disconnect`` change them, under the network's lock. Safe for
    concurrent use. It keeps no state of its own beyond its network and
    connect timeout.

    ``connect``, ``disconnect``, ``is_connected`` and ``discover_gatt`` use a
    device id as is when it is a canonical MAC of a device on the network
    (a ``str`` key of its peripherals). Any other id is normalized with
    ``normalize_mac`` first, so a dashed or lowercase MAC works as before,
    and an id that is not a MAC raises ``BadDeviceId`` as before.

    ``timeout_s`` must be a finite number > 0 and at most
    ``MAX_TIMEOUT_MS / 1000``; any other value raises :class:`InvalidConfig`.
    """

    def __init__(self, network: SimNetwork, timeout_s: float = 10.0):
        self.network = network
        expect(timeout_s, float, InvalidConfig, "timeout_s")
        if not 0 < timeout_s <= MAX_TIMEOUT_MS / 1000.0:
            raise InvalidConfig(f"timeout_s must be > 0 and at most "
                                f"{MAX_TIMEOUT_MS / 1000.0:g}, got {timeout_s!r}")
        self.timeout_s = timeout_s

    @property
    def clock(self):
        return self.network.clock

    # -- connections

    def connect(self, device_id: str, holder=None) -> None:
        """Take ``holder``'s lease on the device's link, taking the link first.

        Taking the link waits out the discovery delay, or ``timeout_s`` when
        the device never advertises in time, and then the link setup. When
        this central holds the link already, the lease is taken at once.
        """
        network, timeout_s = self.network, self.timeout_s
        peripherals = network._peripherals
        peripheral = peripherals.get(device_id) if device_id.__class__ is str else None
        if peripheral is None:
            device_id = normalize_mac(device_id)
            peripheral = peripherals.get(device_id)
            if peripheral is None:
                network.clock.sleep(timeout_s)
                raise NotFound(f"device {device_id} never advertised within {timeout_s:.3f} s")
        if peripheral.connected_by is not self:  # only this central can end its link
            delay_s = network.discovery_delay_s(peripheral)
            if delay_s > timeout_s:
                network.clock.sleep(timeout_s)
                raise Timeout(f"device {device_id} not discovered within {timeout_s:.3f} s")
            network.clock.sleep(delay_s)
        with network._lock:
            # Up already, or a connect of this central in flight got there first.
            linked = peripheral.connected_by is self
            if not (linked or peripheral.connectable):
                raise NotConnectable(f"device {device_id} does not accept connections")
            if not linked and peripheral.connected_by is not None:
                raise Busy(f"device {device_id} already holds its single connection")
            peripheral.connected_by = self
            peripheral.leases[holder] = True
        if not linked:
            network.clock.sleep(network.connect_setup_ms / 1000.0)

    def disconnect(self, device_id: str, holder=None) -> None:
        """Release ``holder``'s lease; without a holder, drop the link.

        A release that leaves a lease on the link returns at once. Else the
        link ends: one critical section checks the lease, releases the link
        with every lease on it, and ends every subscription on the device,
        queuing its end notice, so no subscribe can land on the link after
        that and no value emitted later reaches them. It waits for no
        delivery: a running one ends before the end notice, which tells the
        owner so. Then the teardown latency passes, and the link reads down
        meanwhile. With no live subscription on the network, the registry is
        not scanned.
        """
        network = self.network
        peripherals = network._peripherals
        peripheral = peripherals.get(device_id) if device_id.__class__ is str else None
        if peripheral is None:
            device_id = normalize_mac(device_id)
            peripheral = peripherals.get(device_id)
        with network._lock:
            if peripheral is None or peripheral.connected_by is not self or (
                    holder is not None and holder not in peripheral.leases):
                raise NotConnected(f"not connected to {device_id}")
            if holder is not None:
                del peripheral.leases[holder]
                if peripheral.leases:  # other holders keep the link up
                    return
            peripheral.connected_by, peripheral.leases = None, {}
            subs = [s for char in peripheral._by_uri.values()
                    for s in network._subscriptions.get(char, ())] if network._subscriptions else ()
            for sub in subs:  # each ends with the link, and is told so
                network.unsubscribe(sub, True)
        network.clock.sleep(network.disconnect_latency_ms / 1000.0)

    def is_connected(self, device_id: str, holder=None) -> bool:
        """Whether ``holder`` holds a lease on this central's link to ``device_id``."""
        peripherals = self.network._peripherals
        peripheral = peripherals.get(device_id) if device_id.__class__ is str else None
        if peripheral is None:
            peripheral = peripherals.get(normalize_mac(device_id))
        return (peripheral is not None and peripheral.connected_by is self
                and holder in peripheral.leases)

    def discover_gatt(self, device_id: str) -> None:
        """Explore the device's GATT structure; the link must be up."""
        peripherals = self.network._peripherals
        peripheral = peripherals.get(device_id) if device_id.__class__ is str else None
        if peripheral is None:
            device_id = normalize_mac(device_id)
            peripheral = peripherals.get(device_id)
        if peripheral is None or peripheral.connected_by is not self:
            raise NotConnected(f"not connected to {device_id}")

    # -- attribute operations

    def read(self, uri: GattUri, holder=None) -> bytes:
        """The characteristic's current value, as ``bytes``.

        A value that is exactly ``bytes`` is returned as it is: it cannot
        change under the caller. Any other value, such as a ``bytearray``
        assigned to ``value`` directly, is copied.
        """
        network = self.network
        peripheral = network._peripherals.get(uri.device_id)
        char = (peripheral._by_uri.get(uri.text) if peripheral is not None
                and peripheral.connected_by is self and holder in peripheral.leases else None)
        if char is None or _READ not in char.allowed:
            char = self._attribute(uri, _READ, holder)
        network.clock.sleep(network.read_latency_ms / 1000.0)
        value = char.value
        return value if value.__class__ is bytes else bytes(value)

    def write(self, uri: GattUri, payload: bytes, with_response: bool, holder=None) -> None:
        method = _WRITE if with_response else _WRITE_WITHOUT_RESPONSE
        network = self.network
        peripheral = network._peripherals.get(uri.device_id)
        char = (peripheral._by_uri.get(uri.text) if peripheral is not None
                and peripheral.connected_by is self and holder in peripheral.leases else None)
        if char is None or method not in char.allowed:
            char = self._attribute(uri, method, holder)
        if payload.__class__ is not bytes or len(payload) > MAX_PAYLOAD_OCTETS:
            payload = _octets(payload)  # copies raw octets, or raises
        if with_response:
            # Confirmation round trip; write-without-response completes on send.
            network.clock.sleep(network.write_latency_ms / 1000.0)
        char.value = payload  # the characteristic keeps only its latest value

    def subscribe(self, uri: GattUri, sink: Sink, holder=None):
        char = self._attribute(uri, _NOTIFY, holder)
        return self.network.subscribe(uri, sink, self, char)

    def unsubscribe(self, handle) -> None:
        """End the subscription ``handle``; a no-op for a foreign handle.

        A handle is foreign unless ``subscribe`` on this transport's network
        returned it: neither it nor any registry changes.
        """
        if isinstance(handle, _Subscription) and handle.transport.network is self.network:
            self.network.unsubscribe(handle)

    # -- helpers

    def _attribute(self, uri: GattUri, method: GattMethod, holder) -> SimCharacteristic:
        """The characteristic ``uri`` names, if leased and ``method`` is allowed.

        Raises ``NotConnected``, ``NoSuchAttribute`` or ``MethodNotPermitted``,
        checked in that order. ``subscribe`` calls it on every call; ``read``
        and ``write`` only when their inline checks fail.
        """
        peripheral = self.network._peripherals.get(uri.device_id)
        if (peripheral is None or peripheral.connected_by is not self
                or holder not in peripheral.leases):
            raise NotConnected(f"not connected to {uri.device_id}")
        char = peripheral._by_uri.get(uri.text)
        if char is None:  # not in the index: raises NoSuchAttribute
            char = peripheral.characteristic(uri.service, uri.characteristic)
        if method not in char.allowed:
            raise MethodNotPermitted(
                f"{method.value} not permitted on {uri.characteristic}; "
                f"allowed: {sorted(m.value for m in char.allowed)}"
            )
        return char


#: Argument types that :meth:`SimNetwork.emit` keeps a route for.
_ROUTE_KEY_TYPES = (str, uuidlib.UUID)


def _as_uuid(value) -> uuidlib.UUID:
    """``value`` if it is a ``uuid.UUID``, else ``parse_uuid(value)``: ``BadUuid`` if not text."""
    return value if isinstance(value, uuidlib.UUID) else parse_uuid(value)


def _octets(payload) -> bytes:
    """An attribute value as ``bytes``: only raw octets, at most the ATT cap."""
    if payload.__class__ is not bytes:  # the common case costs this one check
        if not isinstance(payload, (bytes, bytearray, memoryview)):
            raise BadValue("a payload must be bytes, bytearray or memoryview, "
                           f"got {type(payload).__name__}")
        payload = bytes(payload)
    if len(payload) > MAX_PAYLOAD_OCTETS:
        raise ValueTooLong(
            f"payload is {len(payload)} octets, ATT allows at most {MAX_PAYLOAD_OCTETS}"
        )
    return payload


# --- simulated network config files ----------------------------------------------


#: ``SimNetwork`` parameter of each latency knob -> its config key.
_LATENCY_KNOBS = {
    "processing_delay_ms": "processingDelayMs",
    "connect_setup_ms": "connectSetupMs",
    "read_latency_ms": "readLatencyMs",
    "write_latency_ms": "writeLatencyMs",
    "disconnect_latency_ms": "disconnectLatencyMs",
}


def load_sim_config(source, clock=None, seed: int | None = None,
                    auto_notify: bool = True) -> SimNetwork:
    """Build a SimNetwork from a config mapping, JSON text, or file path.

    Schema (docs/sim-config.md): ``{"devices": [{"mac", "advertisingIntervalMs",
    "connectable", "services": {service-uuid: {char-uuid: {"valueHex",
    "allowed", "notifySequenceHex"}}}}]}`` plus optional latency knobs.
    """
    config = source
    if isinstance(source, (str, Path)) and not str(source).lstrip().startswith("{"):
        try:
            config = Path(source).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise InvalidConfig(f"cannot read sim config {source}: {exc}") from exc
    if isinstance(config, str):
        try:
            config = json.loads(config)
        except ValueError as exc:  # not JSON, or an integer with too many digits
            raise InvalidConfig(f"config is not JSON: {exc}") from exc
    expect(config, dict, InvalidConfig, "config")
    devices = expect(config.get("devices"), list, InvalidConfig, "config devices")

    network = SimNetwork(clock=clock, seed=seed, auto_notify=auto_notify, **{
        name: config.get(key, 0.0) for name, key in _LATENCY_KNOBS.items()
    })
    try:
        for device in devices:
            network.define_peripheral(_parse_device(device))
    except BaseException:
        network.close()
        raise
    return network


def _latency(value, name: str) -> float:
    """``value`` as a float, if it is a finite number >= 0; else ``InvalidConfig``.

    The message names the knob's config key, then its parameter ``name``.
    """
    value = float(expect(value, float, InvalidConfig, "%s (%s)", _LATENCY_KNOBS[name], name))
    if value < 0:
        raise InvalidConfig(f"{_LATENCY_KNOBS[name]} ({name}) must be >= 0, got {value}")
    return value


def _parse_device(body) -> SimPeripheral:
    expect(body, dict, InvalidConfig, "device")
    mac_text = expect(body.get("mac"), str, InvalidConfig, "device mac")
    try:
        mac = normalize_mac(mac_text)
    except UriError as exc:
        raise InvalidConfig(f"bad device mac {mac_text!r}: {exc}") from exc
    services_body = expect(body.get("services", {}), dict, InvalidConfig,
                           "device %s: services", mac)

    services: dict = {}
    for svc_text, chars in services_body.items():
        svc = _config_uuid(svc_text)
        services[svc] = {}
        for chr_text, char_body in expect(chars, dict, InvalidConfig,
                                          "device %s: service %s", mac, svc_text).items():
            services[svc][_config_uuid(chr_text)] = _parse_characteristic(char_body, mac)

    return SimPeripheral(mac, body.get("advertisingIntervalMs", 100.0),
                         body.get("connectable", True), services)


def _config_uuid(text: str) -> uuidlib.UUID:
    try:
        return parse_uuid(str(text))
    except UriError as exc:
        raise InvalidConfig(f"bad UUID {text!r}: {exc}") from exc


def _parse_characteristic(body, mac: str) -> SimCharacteristic:
    expect(body, dict, InvalidConfig, "device %s: characteristic", mac)
    value_hex = expect(body.get("valueHex", ""), str, InvalidConfig,
                       "device %s: valueHex", mac)
    notify_hex = expect(body.get("notifySequenceHex", []), list, InvalidConfig,
                        "device %s: notifySequenceHex", mac)
    for entry in notify_hex:
        expect(entry, str, InvalidConfig, "device %s: notifySequenceHex entry", mac)
    try:
        value = bytes.fromhex(value_hex)
        notify = tuple(bytes.fromhex(h) for h in notify_hex)
    except ValueError as exc:
        raise InvalidConfig(f"device {mac}: bad hex value: {exc}") from exc
    allowed = []
    for method in expect(body.get("allowed", ["read"]), list, InvalidConfig,
                         "device %s: allowed", mac):
        try:
            allowed.append(GattMethod(method))
        except ValueError:
            raise InvalidConfig(f"device {mac}: unknown method {method!r}") from None
    return SimCharacteristic(value=value, allowed=allowed, notify_source=notify)


# --- transport specs ----------------------------------------------------------------


#: The longest connect timeout, in ms, that a transport can honour: the
#: longest wait a thread can be given.
MAX_TIMEOUT_MS = threading.TIMEOUT_MAX * 1000.0


def open_transport(spec: str, clock=None, seed: int | None = None,
                   timeout_s: float = 10.0) -> SimTransport:
    """A central on a new network loaded from a ``sim:<config path>`` spec.

    The caller closes ``transport.network`` when done with it.
    """
    if not spec.startswith("sim:"):
        raise InvalidConfig(f"unknown transport {spec!r}; use 'sim:<config path>'")
    network = load_sim_config(spec[4:], clock=clock, seed=seed)
    try:
        return SimTransport(network, timeout_s=timeout_s)
    except InvalidConfig:  # a bad timeout_s: stop the network's delivery thread
        network.close()
        raise
