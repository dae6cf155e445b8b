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
from dataclasses import dataclass
from pathlib import Path
from queue import SimpleQueue
from typing import Callable

from .binding import GattMethod
from .clock import RealClock
from .codec import MAX_PAYLOAD_OCTETS
from .errors import (
    Busy,
    DuplicateDevice,
    InvalidConfig,
    MethodNotPermitted,
    NoSuchAttribute,
    NotConnectable,
    NotConnected,
    NotFound,
    Timeout,
    TransportError,
    TransportUnavailable,
    UriError,
    ValueTooLong,
    expect,
)
from .uris import GattUri, normalize_mac, parse_uuid

Sink = Callable[[bytes], None]

# Bound once for the per-call checks; a module name is cheaper to read than
# an enum member.
_READ = GattMethod.READ
_WRITE = GattMethod.WRITE
_WRITE_WITHOUT_RESPONSE = GattMethod.WRITE_WITHOUT_RESPONSE
_NOTIFY = GattMethod.NOTIFY


@dataclass(frozen=True)
class GattTree:
    """Services and characteristics found while exploring a device."""

    services: dict

    def characteristics(self, service: uuidlib.UUID):
        return self.services.get(service, ())


class TransportContract(abc.ABC):
    """Abstract GATT central: exactly what a ``ConsumedThing`` calls.

    The transport owns each link; ``is_connected`` is the only record of
    one that a consumer reads. A consumer relies on two promises:

    * ``read``, ``write`` and ``subscribe`` raise :class:`NotConnected`
      before any effect when the link to the URI's device is down, so the
      call may be made again once connected;
    * nothing reaches a sink after ``unsubscribe`` or ``disconnect``
      returns, and ``disconnect`` ends the link's subscriptions.

    A write with response completes only after the server confirms, without
    response on send.
    """

    @abc.abstractmethod
    def connect(self, device_id: str) -> None: ...

    @abc.abstractmethod
    def disconnect(self, device_id: str) -> None: ...

    @abc.abstractmethod
    def is_connected(self, device_id: str) -> bool: ...

    @abc.abstractmethod
    def discover_gatt(self, device_id: str) -> GattTree: ...

    @abc.abstractmethod
    def read(self, uri: GattUri) -> bytes: ...

    @abc.abstractmethod
    def write(self, uri: GattUri, payload: bytes, with_response: bool) -> None: ...

    @abc.abstractmethod
    def subscribe(self, uri: GattUri, sink: Sink): ...

    @abc.abstractmethod
    def unsubscribe(self, handle) -> None: ...


# --- simulated peripherals ------------------------------------------------------


@dataclass
class WriteRecord:
    timestamp_s: float
    payload: bytes
    with_response: bool


class SimCharacteristic:
    """One characteristic: a value, its allowed methods, and a write log."""

    def __init__(self, value: bytes = b"", allowed=(GattMethod.READ,),
                 notify_source: tuple[bytes, ...] = ()):
        value = bytes(value)
        if len(value) > MAX_PAYLOAD_OCTETS:
            raise InvalidConfig(
                f"characteristic value is {len(value)} octets, max {MAX_PAYLOAD_OCTETS}"
            )
        self.value = value
        self.allowed = frozenset(allowed)
        self.notify_source = tuple(bytes(v) for v in notify_source)
        self.write_log: list[WriteRecord] = []
        self._notify_cursor = 0


class SimPeripheral:
    """Definition plus runtime state of one simulated device.

    ``services`` maps service UUID to characteristic UUID to
    :class:`SimCharacteristic`. It is fixed once the peripheral is defined:
    an index by canonical ``gatt://`` text, built from it here, serves the
    transport's per-call lookup.
    """

    def __init__(self, device_id: str, advertising_interval_ms: float,
                 connectable: bool = True, services: dict | None = None):
        self.device_id = normalize_mac(device_id)
        if advertising_interval_ms <= 0:
            raise InvalidConfig("advertising interval must be > 0 ms")
        self.advertising_interval_ms = float(advertising_interval_ms)
        self.connectable = bool(connectable)
        self.services: dict = services or {}
        self.connected_by = None  # the SimTransport holding the single connection
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

    def gatt_tree(self) -> GattTree:
        return GattTree(services={
            svc: tuple((char, chr_obj.allowed) for char, chr_obj in chars.items())
            for svc, chars in self.services.items()
        })


class _Subscription:
    def __init__(self, uri: GattUri, sink: Sink, transport: "SimTransport"):
        self.uri = uri
        self.key = (uri.device_id, uri.service, uri.characteristic)
        self.sink = sink
        self.transport = transport
        self.active = True
        self.delivering = False


class SimNetwork:
    """A set of simulated peripherals sharing one clock and RNG.

    Any number of :class:`SimTransport` centrals may attach; each peripheral
    accepts a single connection at a time. Notification delivery runs on a
    dedicated worker thread, never on the subscriber's calling thread.

    Lifecycle:

    * Only the network's methods change a device's ``connected_by``, a
      characteristic's value and write log, and the subscription registry:
      :meth:`attach`, :meth:`detach`, :meth:`store`, :meth:`subscribe` and
      :meth:`unsubscribe`.
    * The subscription registry holds live subscriptions only: unsubscribing
      removes the entry, and nothing is delivered to it after
      ``unsubscribe`` returns, not even a value already queued.
    * With ``auto_notify`` a subscription's scripted values are queued in
      the same critical section that registers it, for that subscriber only.
    * Disconnecting a central cancels that central's subscriptions on the
      device; unsubscribing one of them afterwards is a no-op.
    * :meth:`close` (also called on leaving a ``with`` block) lets the
      delivery thread hand out what was queued before it, then stops and
      joins the thread. It is idempotent; later ``subscribe`` and
      :meth:`emit` calls raise :class:`TransportUnavailable`.
    """

    def __init__(self, clock=None, seed: int | None = None, auto_notify: bool = True,
                 processing_delay_ms: float = 0.0, connect_setup_ms: float = 0.0,
                 read_latency_ms: float = 0.0, write_latency_ms: float = 0.0,
                 disconnect_latency_ms: float = 0.0):
        self.clock = clock if clock is not None else RealClock()
        self.auto_notify = auto_notify
        self.processing_delay_ms = processing_delay_ms
        self.connect_setup_ms = connect_setup_ms
        self.read_latency_ms = read_latency_ms
        self.write_latency_ms = write_latency_ms
        self.disconnect_latency_ms = disconnect_latency_ms
        self._rng = random.Random(seed)
        self._rng_lock = threading.Lock()
        self._peripherals: dict[str, SimPeripheral] = {}
        self._lock = threading.RLock()
        self._cond = threading.Condition(self._lock)
        self._subscriptions: dict[tuple, list[_Subscription]] = {}
        self._queue: SimpleQueue = SimpleQueue()
        self._closed = False
        self._worker = threading.Thread(target=self._deliver_loop,
                                        name="wotble-sim-delivery", daemon=True)
        self._worker.start()

    def __enter__(self) -> "SimNetwork":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- definition

    def define_peripheral(self, peripheral: SimPeripheral) -> SimPeripheral:
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
        with self._rng_lock:
            phase_ms = self._rng.uniform(0.0, peripheral.advertising_interval_ms)
        return (phase_ms + self.processing_delay_ms) / 1000.0

    # -- links

    def attach(self, mac: str, central, timeout_s: float) -> None:
        """Discover ``mac`` and give ``central`` the device's single link.

        ``mac`` is canonical. Waits out the discovery delay, or ``timeout_s``
        when the device never advertises in time, and then the link setup.
        """
        peripheral = self._peripherals.get(mac)
        if peripheral is None:
            self.clock.sleep(timeout_s)
            raise NotFound(f"device {mac} never advertised within {timeout_s:.3f} s")
        delay_s = self.discovery_delay_s(peripheral)
        if delay_s > timeout_s:
            self.clock.sleep(timeout_s)
            raise Timeout(f"device {mac} not discovered within {timeout_s:.3f} s")
        self.clock.sleep(delay_s)
        with self._lock:
            if not peripheral.connectable:
                raise NotConnectable(f"device {mac} does not accept connections")
            if peripheral.connected_by is not None:
                raise Busy(f"device {mac} already holds its single connection")
            peripheral.connected_by = central
        self.clock.sleep(self.connect_setup_ms / 1000.0)

    def linked(self, mac: str, central) -> SimPeripheral:
        """The peripheral ``central`` holds the link to; ``mac`` is canonical.

        Takes no lock, as it runs on every read and write.
        """
        peripheral = self._peripherals.get(mac)
        if peripheral is None or peripheral.connected_by is not central:
            raise NotConnected(f"not connected to {mac}")
        return peripheral

    def is_linked(self, mac: str, central) -> bool:
        """Whether ``central`` holds the link to ``mac``; ``mac`` is canonical."""
        peripheral = self._peripherals.get(mac)
        return peripheral is not None and peripheral.connected_by is central

    def detach(self, mac: str, central) -> None:
        """End ``central``'s link to ``mac`` and its subscriptions there."""
        peripheral = self.linked(mac, central)
        with self._lock:
            subs = [s for lst in self._subscriptions.values() for s in lst
                    if s.transport is central and s.uri.device_id == mac]
        for sub in subs:
            self.unsubscribe(sub)
        self.clock.sleep(self.disconnect_latency_ms / 1000.0)
        with self._lock:
            if peripheral.connected_by is central:
                peripheral.connected_by = None

    def store(self, char: SimCharacteristic, payload: bytes, with_response: bool) -> None:
        """Commit a written value and append it to the write log."""
        with self._lock:
            char.value = payload
            char.write_log.append(
                WriteRecord(self.clock.monotonic(), payload, with_response)
            )

    # -- notifications

    def _require_open(self) -> None:
        if self._closed:
            raise TransportUnavailable("the simulated network is closed")

    def subscribe(self, uri: GattUri, sink: Sink, central,
                  char: SimCharacteristic) -> _Subscription:
        """Register a live subscription of ``central`` to ``uri``.

        With ``auto_notify`` the characteristic's script is queued in the
        same critical section, for this subscriber alone.
        """
        sub = _Subscription(uri, sink, central)
        with self._lock:
            self._require_open()
            self._subscriptions.setdefault(sub.key, []).append(sub)
            if self.auto_notify:
                for payload in char.notify_source:
                    self._queue.put((sub, payload))
        return sub

    def unsubscribe(self, sub: _Subscription) -> None:
        """End ``sub``: nothing is delivered to it once this returns."""
        on_worker = threading.get_ident() == self._worker.ident
        with self._cond:
            if sub.active:
                sub.active = False
                live = self._subscriptions[sub.key]
                live.remove(sub)
                if not live:
                    del self._subscriptions[sub.key]
            # Skip the wait for a running delivery when called from the
            # delivery thread itself.
            while sub.delivering and not on_worker:
                self._cond.wait()

    def emit(self, device_id: str, service, characteristic, payload: bytes) -> None:
        """Deliver one notification value to all active subscribers."""
        svc, chr_ = _as_uuid(service), _as_uuid(characteristic)
        peripheral = self.peripheral(device_id)
        char = peripheral.characteristic(svc, chr_)
        if _NOTIFY not in char.allowed:
            raise MethodNotPermitted("characteristic does not allow notify")
        payload = bytes(payload)
        # Queued under the lock, so nothing lands behind close()'s stop marker.
        with self._lock:
            self._require_open()
            for sub in self._subscriptions.get((peripheral.device_id, svc, chr_), ()):
                self._queue.put((sub, payload))

    def emit_next(self, device_id: str, service, characteristic) -> bytes | None:
        """Deliver the next scripted value; None when the script is exhausted."""
        char = self.characteristic(device_id, service, characteristic)
        with self._lock:
            if char._notify_cursor >= len(char.notify_source):
                return None
            payload = char.notify_source[char._notify_cursor]
            char._notify_cursor += 1
        self.emit(device_id, service, characteristic, payload)
        return payload

    def _deliver_loop(self) -> None:
        while True:
            item = self._queue.get()
            if item is None:
                return
            sub, payload = item
            with self._cond:
                if not sub.active:
                    continue
                sub.delivering = True
            try:
                sub.sink(payload)
            except Exception:
                pass  # a failing sink must not stall delivery to others
            finally:
                with self._cond:
                    sub.delivering = False
                    self._cond.notify_all()

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
    """A simulated central attached to a :class:`SimNetwork`.

    The central is connected to a device exactly when the device's
    ``connected_by`` is this transport; the link is recorded nowhere else,
    and only the network's methods change it. Safe for concurrent use;
    every public call is appended to ``trace`` as an ``(operation, detail)``
    tuple for test inspection.
    """

    def __init__(self, network: SimNetwork, timeout_s: float = 10.0):
        self.network = network
        self.timeout_s = timeout_s
        self.trace: list[tuple] = []

    @property
    def clock(self):
        return self.network.clock

    # -- discovery, as a bluetoothctl script drives it; no consumer calls it

    def start_discovery(self) -> None:
        self.trace.append(("start_discovery", None))

    def stop_discovery(self) -> None:
        self.trace.append(("stop_discovery", None))

    # -- connections

    def connect(self, device_id: str) -> None:
        mac = normalize_mac(device_id)
        try:
            self.network.attach(mac, self, self.timeout_s)
        except TransportError:
            self.trace.append(("connect_failed", mac))
            raise
        self.trace.append(("connect", mac))

    def disconnect(self, device_id: str) -> None:
        mac = normalize_mac(device_id)
        self.network.detach(mac, self)
        self.trace.append(("disconnect", mac))

    def is_connected(self, device_id: str) -> bool:
        return self.network.is_linked(normalize_mac(device_id), self)

    def discover_gatt(self, device_id: str) -> GattTree:
        mac = normalize_mac(device_id)
        peripheral = self.network.linked(mac, self)
        self.trace.append(("discover_gatt", mac))
        return peripheral.gatt_tree()

    # -- attribute operations

    def read(self, uri: GattUri) -> bytes:
        char = self._attribute(uri, _READ)
        network = self.network
        network.clock.sleep(network.read_latency_ms / 1000.0)
        self.trace.append(("read", uri.text))
        return bytes(char.value)

    def write(self, uri: GattUri, payload: bytes, with_response: bool) -> None:
        char = self._attribute(uri, _WRITE if with_response else _WRITE_WITHOUT_RESPONSE)
        payload = bytes(payload)
        if len(payload) > MAX_PAYLOAD_OCTETS:
            raise ValueTooLong(
                f"payload is {len(payload)} octets, ATT allows at most {MAX_PAYLOAD_OCTETS}"
            )
        network = self.network
        if with_response:
            # Confirmation round trip; write-without-response completes on send.
            network.clock.sleep(network.write_latency_ms / 1000.0)
        network.store(char, payload, with_response)
        self.trace.append(("write", uri.text, payload.hex(), with_response))

    def subscribe(self, uri: GattUri, sink: Sink):
        char = self._attribute(uri, _NOTIFY)
        sub = self.network.subscribe(uri, sink, self, char)
        self.trace.append(("subscribe", uri.text))
        return sub

    def unsubscribe(self, handle) -> None:
        if isinstance(handle, _Subscription):
            self.network.unsubscribe(handle)
            self.trace.append(("unsubscribe", handle.uri.text))

    # -- helpers

    def _attribute(self, uri: GattUri, method: GattMethod) -> SimCharacteristic:
        peripheral = self.network.linked(uri.device_id, self)
        char = peripheral._by_uri.get(uri.text)
        if char is None:  # not in the index: raises NoSuchAttribute
            char = peripheral.characteristic(uri.service, uri.characteristic)
        if method not in char.allowed:
            raise MethodNotPermitted(
                f"{method.value} not permitted on {uri.characteristic}; "
                f"allowed: {sorted(m.value for m in char.allowed)}"
            )
        return char


def _as_uuid(value) -> uuidlib.UUID:
    return value if isinstance(value, uuidlib.UUID) else parse_uuid(str(value))


# --- simulated network config files ----------------------------------------------


#: Config key of each latency knob -> its ``SimNetwork`` parameter.
_LATENCY_KNOBS = {
    "processingDelayMs": "processing_delay_ms",
    "connectSetupMs": "connect_setup_ms",
    "readLatencyMs": "read_latency_ms",
    "writeLatencyMs": "write_latency_ms",
    "disconnectLatencyMs": "disconnect_latency_ms",
}


def load_sim_config(source, clock=None, seed: int | None = None,
                    auto_notify: bool = True) -> SimNetwork:
    """Build a SimNetwork from a config mapping, JSON text, or file path.

    Schema (docs/sim-config.md): ``{"devices": [{"mac", "advertisingIntervalMs",
    "connectable", "services": {service-uuid: {char-uuid: {"valueHex",
    "allowed", "notifySequenceHex"}}}}]}`` plus optional latency knobs.
    """
    if isinstance(source, (str, Path)) and not str(source).lstrip().startswith("{"):
        try:
            text = Path(source).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise InvalidConfig(f"cannot read sim config {source}: {exc}") from exc
        config = _loads_config(text)
    elif isinstance(source, str):
        config = _loads_config(source)
    else:
        config = source
    expect(config, dict, InvalidConfig, "config")
    devices = expect(config.get("devices"), list, InvalidConfig, "config devices")

    network = SimNetwork(clock=clock, seed=seed, auto_notify=auto_notify, **{
        name: float(expect(config.get(key, 0.0), float, InvalidConfig, key))
        for key, name in _LATENCY_KNOBS.items()
    })
    try:
        for device in devices:
            network.define_peripheral(_parse_device(device))
    except BaseException:
        network.close()
        raise
    return network


def _loads_config(text: str):
    try:
        return json.loads(text)
    except ValueError as exc:  # not JSON, or an integer with too many digits
        raise InvalidConfig(f"config is not JSON: {exc}") from exc


def _parse_device(body) -> SimPeripheral:
    expect(body, dict, InvalidConfig, "device")
    mac_text = expect(body.get("mac"), str, InvalidConfig, "device mac")
    try:
        mac = normalize_mac(mac_text)
    except UriError as exc:
        raise InvalidConfig(f"bad device mac {mac_text!r}: {exc}") from exc
    interval = expect(body.get("advertisingIntervalMs", 100.0), float, InvalidConfig,
                      "device %s: advertisingIntervalMs", mac)
    if interval <= 0:
        raise InvalidConfig(f"device {mac}: advertisingIntervalMs must be > 0")
    connectable = expect(body.get("connectable", True), bool, InvalidConfig,
                         "device %s: connectable", mac)
    services_body = expect(body.get("services", {}), dict, InvalidConfig,
                           "device %s: services", mac)

    services: dict = {}
    for svc_text, chars in services_body.items():
        svc = _config_uuid(svc_text)
        services[svc] = {}
        for chr_text, char_body in expect(chars, dict, InvalidConfig,
                                          "device %s: service %s", mac, svc_text).items():
            services[svc][_config_uuid(chr_text)] = _parse_characteristic(char_body, mac)

    return SimPeripheral(
        device_id=mac,
        advertising_interval_ms=float(interval),
        connectable=connectable,
        services=services,
    )


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


def open_transport(spec: str, clock=None, seed: int | None = None,
                   timeout_s: float = 10.0) -> SimTransport:
    """A central on a new network loaded from a ``sim:<config path>`` spec.

    The caller closes ``transport.network`` when done with it.
    """
    if not spec.startswith("sim:"):
        raise InvalidConfig(f"unknown transport {spec!r}; use 'sim:<config path>'")
    return SimTransport(load_sim_config(spec[4:], clock=clock, seed=seed),
                        timeout_s=timeout_s)
