"""The three benchmark workloads, driven through wotble's public API.

Each workload builds its whole input list once from the seed, then runs that
same list in every *round*. A round owns a fresh ``SimNetwork`` and
``SimTransport`` on a ``VirtualClock``, so per-round state such as
``SimTransport.trace`` grows with the round's fixed operation count and not
with the length of the run, and every round of one seed repeats the same
radio time and the same calls into each layer.

Every result is checked against values taken from the fixtures, never from
the codec under test: a mismatch is a failure with its cause.
"""

from __future__ import annotations

import gc
import json
import math
import random
import statistics
import threading
import time
from collections import Counter
from pathlib import Path

import wotble

SENSOR_TD = "flower-sensor.td.json"
LAMP_TD = "ble-lamp.td.json"
BEACON_TD = "thermo-beacon.td.json"
SIM_CONFIG = "network.sim.json"

#: Decoded values the fixture sim config holds for the sensor's properties.
SENSOR_VALUES = {"moisture": 42, "temperature": 25.0}
LAMP = ("BE:58:30:00:CC:11", "0000fff0-0000-1000-8000-00805f9b34fb",
        "0000fff3-0000-1000-8000-00805f9b34fb")
BEACON = ("D0:F0:18:44:23:02", "0000ffe0-0000-1000-8000-00805f9b34fb",
          "0000ffe1-0000-1000-8000-00805f9b34fb")

#: Sample kind of a session, by the Thing it talks to.
SESSION_KINDS = {SENSOR_TD: "session_read", LAMP_TD: "session_write",
                 BEACON_TD: "session_notify"}

#: Nonzero radio phases, so every phase costs virtual time.
LATENCY_MS = {
    "processingDelayMs": 5.0,
    "connectSetupMs": 30.0,
    "readLatencyMs": 8.0,
    "writeLatencyMs": 12.0,
    "disconnectLatencyMs": 4.0,
}

#: Operations per calibration chunk; see ``Round``.
CHUNK = 100
#: Iterations of the calibration loop, and the loop's time on the reference
#: machine (a 2-vCPU VM at 2.0 GHz, Python 3.11, when not slowed by others).
CALIBRATION_LOOPS = 40
REFERENCE_CALIBRATION_NS = 24_000
#: The power of the loop's slowdown that the workloads share. Across the
#: machine states seen (NOTES.md), log workload time against log loop time
#: had slopes from 0.5 to 1; 0.75 kept the worst spread and drift lowest.
SPEED_EXPONENT = 0.75

#: How long to wait for a notification before counting it undelivered.
DELIVERY_TIMEOUT_S = 2.0

ns = time.perf_counter_ns


def lamp_payload(on: int) -> bytes:
    """The octets ``7e0004{on}00000000ef`` written for ``{"on": on}``."""
    return bytes.fromhex(f"7e0004{on:02x}00000000ef")


def beacon_value(octet: int) -> float:
    """The beacon temperature for one notification octet (scale 0.1)."""
    return octet / 10


def percentile(samples, q: float) -> float:
    """Nearest-rank percentile; 0 for no samples."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    return float(ordered[min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))])


def failure_layer(exc: BaseException) -> str:
    """The wotble module deepest in the traceback, or ``bench`` if none."""
    layer = "bench"
    tb = exc.__traceback__
    while tb is not None:
        module = tb.tb_frame.f_globals.get("__name__", "")
        if module.startswith("wotble."):
            layer = module.split(".")[1]
        tb = tb.tb_next
    return layer


def calibrate() -> int:
    """Nanoseconds of the fastest of three runs of a fixed interpreter loop."""
    return min(_calibration_loop() for _ in range(3))


def speed_scale(calibration_ns: float) -> float:
    """The factor that takes wall time measured at a loop time to the reference."""
    return (REFERENCE_CALIBRATION_NS / calibration_ns) ** SPEED_EXPONENT


def _calibration_loop() -> int:
    table: dict = {}
    start = ns()
    for i in range(CALIBRATION_LOOPS):
        table[i & 63] = (i, str(i))
        sorted(table)
    return ns() - start


class Round:
    """What one round measured.

    Other tenants of a shared machine slow its CPU by up to twice, for
    seconds to minutes at a time. So before every ``CHUNK`` operations the
    round times a fixed interpreter loop (``calibrate``), and each latency
    sample is scaled by ``speed_scale`` of the loop time around its chunk:
    the figures are wall time at the reference CPU speed.
    """

    def __init__(self):
        self.samples: dict[str, list[int]] = {
            k: [] for k in ("op", "read", "write", "session", *SESSION_KINDS.values(),
                            "notify", "late", "hop")
        }
        self.attempted = 0
        #: (ns before, calibration ns, ns after, sample counts) per checkpoint.
        self.checkpoints: list[tuple[int, int, int, dict[str, int]]] = []
        self.failures: Counter = Counter()
        self.radio_s = 0.0
        self.trace_entries = 0
        #: Full (generation 2) garbage collections during the round.
        self.gc_gen2 = 0
        #: Per sample kind, (count, p50 ns, p99 ns) at reference speed, and
        #: the p50 in plain wall time.
        self.summary: dict[str, tuple[int, float, float, float]] = {}
        #: Operations per second, from wall time scaled as the samples are.
        self.rate = 0.0
        #: Operations per second in plain wall time.
        self.raw_rate = 0.0
        #: Median of the chunks' ``speed_scale``.
        self.speed = 0.0

    def begin(self) -> None:
        """Count one attempted operation."""
        if self.attempted % CHUNK == 0:
            self.checkpoint()
        self.attempted += 1

    def checkpoint(self) -> None:
        before = ns()
        took = calibrate()
        self.checkpoints.append((before, took, ns(),
                                 {k: len(v) for k, v in self.samples.items()}))

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def fail(self, exc: BaseException) -> None:
        self.failures[f"{failure_layer(exc)}.{type(exc).__name__}"] += 1

    def wrong(self, cause: str) -> None:
        self.failures[f"check.{cause}"] += 1

    def summarize(self) -> None:
        """Scale the samples chunk by chunk, keep percentiles, drop the samples.

        Raw samples would pile up over a run, so the peak memory of a run
        would depend on how many rounds fit in it.
        """
        scaled: dict[str, list[float]] = {k: [] for k in self.samples}
        plain: dict[str, list[int]] = {k: [] for k in self.samples}
        speeds, busy_ns, scaled_ns = [], 0, 0.0
        for (_, cal0, after, lo), (before, cal1, _, hi) in zip(self.checkpoints,
                                                                self.checkpoints[1:]):
            speed = speed_scale((cal0 + cal1) / 2)
            speeds.append(speed)
            for kind, samples in self.samples.items():
                chunk = samples[lo[kind]:hi[kind]]
                plain[kind].extend(chunk)
                scaled[kind].extend(x * speed for x in chunk)
            busy_ns += before - after
            scaled_ns += (before - after) * speed
        for kind, samples in scaled.items():
            self.summary[kind] = (len(samples), percentile(samples, 0.5),
                                  percentile(samples, 0.99), percentile(plain[kind], 0.5))
            self.samples[kind].clear()
        if busy_ns:
            self.rate = self.attempted * 1e9 / scaled_ns
            self.raw_rate = self.attempted * 1e9 / busy_ns
            self.speed = statistics.median(speeds)


class Workload:
    """Seeded inputs plus the fixtures every round is built from."""

    name = ""
    ops = 0
    #: The sample kinds of this workload's defining operation; ``op_us_p50``
    #: is the mean of their p50s, so each kind moves it.
    op_kinds = ("op",)
    #: True when operations follow a schedule rather than each other.
    open_loop = False

    def __init__(self, seed: int, root: Path):
        self.seed = seed
        self.fixtures = Path(root) / "fixtures"
        self.td_text = {name: (self.fixtures / name).read_text(encoding="utf-8")
                        for name in (SENSOR_TD, LAMP_TD, BEACON_TD)}
        config = json.loads((self.fixtures / SIM_CONFIG).read_text(encoding="utf-8"))
        config.update(LATENCY_MS)
        self.sim_config = config
        self.items = self.make_items(random.Random(seed))

    def make_items(self, rng: random.Random) -> list:
        raise NotImplementedError

    def open(self) -> None:
        """Build the round's network, transport and things."""
        self.clock = wotble.VirtualClock()
        self.network = wotble.load_sim_config(self.sim_config, clock=self.clock,
                                              seed=self.seed, auto_notify=False)
        self.transport = wotble.SimTransport(self.network)
        self.lamp_char = self.network.characteristic(*LAMP)

    def thing(self, td_name: str, policy) -> "wotble.ConsumedThing":
        return wotble.consume(wotble.parse_td(self.td_text[td_name]), self.transport,
                              policy)

    def run(self, result: Round, items=None) -> None:
        raise NotImplementedError

    def close(self, result: Round) -> None:
        result.trace_entries = len(getattr(self.transport, "trace", ()))
        self.network.close()

    def round(self, items=None) -> Round:
        """Run ``items`` (default: every input) on a fresh network."""
        result = Round()
        self.open()
        try:
            v0 = self.clock.monotonic()
            gc0 = gc.get_stats()[2]["collections"]
            self.run(result, items)
            result.checkpoint()
            result.gc_gen2 = gc.get_stats()[2]["collections"] - gc0
            result.radio_s = self.clock.monotonic() - v0
        finally:
            self.close(result)
        result.summarize()
        # A closed network and its worker thread form a cycle; free the round
        # now, so that peak memory is one round's and not the garbage of many.
        gc.collect()
        return result

    def first_op(self) -> None:
        """Set up a round and run its first operation; used to time set-up."""
        result = Round()
        self.open()
        try:
            self.run(result, self.items[:1])
        finally:
            self.close(result)
        if result.failed:
            raise RuntimeError(f"first operation failed: {dict(result.failures)}")

    # -- checked interactions shared by the workloads

    def read(self, result: Round, thing, name: str, start: int) -> int | None:
        """Read and check one sensor property; returns the end time, or None."""
        try:
            value = thing.read_property(name)
        except Exception as exc:
            result.fail(exc)
            return
        end = ns()
        result.samples["read"].append(end - start)
        expected = SENSOR_VALUES[name]
        if not (type(value) is type(expected) and math.isclose(value, expected,
                                                               abs_tol=1e-9)):
            result.wrong("read_value")
        return end

    def write(self, result: Round, thing, on: int, start: int) -> int | None:
        """Write and check the lamp's power; returns the end time, or None."""
        try:
            thing.write_property("power", {"on": on})
        except Exception as exc:
            result.fail(exc)
            return
        end = ns()
        result.samples["write"].append(end - start)
        if self.lamp_char.value != lamp_payload(on):
            result.wrong("write_bytes")
        return end


class PollHot(Workload):
    """Closed loop, one caller, keep-connected: reads with 1 in 5 lamp writes."""

    name = "poll-hot"
    ops = 20_000

    def make_items(self, rng):
        return [("write", rng.randint(0, 1)) if rng.random() < 0.2
                else ("read", rng.choice(("moisture", "temperature")))
                for _ in range(self.ops)]

    def open(self):
        super().open()
        policy = wotble.ConnectionPolicy.KEEP_CONNECTED
        self.sensor = self.thing(SENSOR_TD, policy)
        self.lamp = self.thing(LAMP_TD, policy)
        self.sensor.connect()
        self.lamp.connect()

    def run(self, result, items=None):
        ops = result.samples["op"]
        for kind, arg in items or self.items:
            result.begin()
            start = ns()
            if kind == "read":
                end = self.read(result, self.sensor, arg, start)
            else:
                end = self.write(result, self.lamp, arg, start)
            if end is not None:
                ops.append(end - start)


class SessionChurn(Workload):
    """Closed loop, reconnect per operation: parse, consume, one interaction."""

    name = "session-churn"
    ops = 2_100
    op_kinds = tuple(SESSION_KINDS.values())

    def make_items(self, rng):
        # Equal thirds, so that each kind's p50 rests on as many sessions
        # whatever the seed.
        things = [SENSOR_TD, LAMP_TD, BEACON_TD] * (self.ops // 3)
        things += [SENSOR_TD, LAMP_TD][:self.ops - len(things)]
        rng.shuffle(things)
        args = {SENSOR_TD: lambda: rng.choice(("moisture", "temperature")),
                LAMP_TD: lambda: rng.randint(0, 1),
                BEACON_TD: lambda: rng.randrange(256)}
        return [(thing, args[thing]()) for thing in things]

    def run(self, result, items=None):
        policy = wotble.ConnectionPolicy.RECONNECT_PER_OPERATION
        samples = result.samples
        for td_name, arg in items or self.items:
            result.begin()
            start = ns()
            thing = None
            try:
                thing = self.thing(td_name, policy)
                if td_name == SENSOR_TD:
                    ok = self.read(result, thing, arg, ns()) is not None
                elif td_name == LAMP_TD:
                    ok = self.write(result, thing, arg, ns()) is not None
                else:
                    ok = self.notify_once(result, thing, arg)
                thing.disconnect()
            except Exception as exc:
                result.fail(exc)
                ok = False
            if ok:
                took = ns() - start
                samples["session"].append(took)
                samples[SESSION_KINDS[td_name]].append(took)
            elif thing is not None:
                try:
                    thing.disconnect()
                except Exception:
                    pass  # the failure is already counted; free the peripheral

    def notify_once(self, result: Round, thing, octet: int) -> bool:
        """Subscribe, emit one value, wait for the listener, unsubscribe."""
        arrived = []
        event = threading.Event()

        def listener(value):
            arrived.append((ns(), value))
            event.set()

        sub = thing.subscribe_event("temperature", listener)
        try:
            start = ns()
            self.network.emit(*BEACON, bytes([octet]))
            emitted = ns()
            delivered = event.wait(DELIVERY_TIMEOUT_S)
        finally:
            thing.unsubscribe_event(sub)
        if not delivered:
            result.wrong("undelivered")
            return False
        entry, value = arrived[0]
        result.samples["notify"].append(entry - start)
        result.samples["hop"].append(entry - emitted)
        if len(arrived) != 1 or not math.isclose(value, beacon_value(octet),
                                                 abs_tol=1e-9):
            result.wrong("notify_value")
        return True


class NotifyMixed(Workload):
    """Open loop: beacon notifications beside keep-connected reads and writes.

    One generator thread (this one) walks a time-ordered schedule, sleeping
    until each item is due; the transport's delivery thread runs the
    listeners. Every item is timed from its due time.
    """

    name = "notify-mixed"
    op_kinds = ("notify",)
    open_loop = True
    #: Two seconds of schedule per round.
    notify_per_s = 500
    interact_per_s = 2000
    ops = 2 * (notify_per_s + interact_per_s)
    #: Delay from the end of set-up to the first due time.
    lead_ns = 2_000_000

    def make_items(self, rng):
        round_s = self.ops / (self.notify_per_s + self.interact_per_s)
        n_notify = round(round_s * self.notify_per_s)
        n_interact = self.ops - n_notify
        notify_step = 1_000_000_000 // self.notify_per_s
        interact_step = 1_000_000_000 // self.interact_per_s
        items = [(k * notify_step, "notify", rng.randrange(256))
                 for k in range(n_notify)]
        for k in range(n_interact):
            due = k * interact_step + interact_step // 2
            if rng.random() < 0.2:
                items.append((due, "write", rng.randint(0, 1)))
            else:
                items.append((due, "read", rng.choice(("moisture", "temperature"))))
        items.sort(key=lambda item: item[0])
        return items

    def open(self):
        super().open()
        policy = wotble.ConnectionPolicy.KEEP_CONNECTED
        self.sensor = self.thing(SENSOR_TD, policy)
        self.lamp = self.thing(LAMP_TD, policy)
        self.beacon = self.thing(BEACON_TD, policy)
        self.sensor.connect()
        self.lamp.connect()
        self.arrived: list = []
        arrived = self.arrived
        self.subscription = self.beacon.subscribe_event(
            "temperature", lambda value: arrived.append((ns(), value)))

    def close(self, result):
        try:
            self.beacon.unsubscribe_event(self.subscription)
        finally:
            super().close(result)

    def run(self, result, items=None):
        items = items or self.items
        samples = result.samples
        late = samples["late"]
        notify, hop = samples["notify"], samples["hop"]
        emitted: list[tuple[int, int, int]] = []  # (due, emit returned, octet)
        base = ns() + self.lead_ns
        for offset, kind, arg in items:
            # Calibrates every CHUNK items, so before the wait, not in the timing.
            result.begin()
            due = base + offset
            now = ns()
            if due > now:
                time.sleep((due - now) / 1e9)
            late.append(ns() - due)
            if kind == "notify":
                try:
                    self.network.emit(*BEACON, bytes([arg]))
                except Exception as exc:
                    result.fail(exc)
                    continue
                emitted.append((due, ns(), arg))
                # Filled in by collect(); holds the sample's place in its chunk.
                notify.append(0)
                hop.append(0)
            elif kind == "read":
                self.read(result, self.sensor, arg, due)
            else:
                self.write(result, self.lamp, arg, due)
        self.collect(result, emitted)

    def collect(self, result: Round, emitted: list) -> None:
        """Match listener entries to emits, in order; count what never came."""
        deadline = time.monotonic() + DELIVERY_TIMEOUT_S
        while len(self.arrived) < len(emitted) and time.monotonic() < deadline:
            time.sleep(0.001)
        arrived = self.arrived
        notify, hop = result.samples["notify"], result.samples["hop"]
        for k, ((due, returned, octet), (entry, value)) in enumerate(zip(emitted, arrived)):
            notify[k] = entry - due
            hop[k] = entry - returned
            if not math.isclose(value, beacon_value(octet), abs_tol=1e-9):
                result.wrong("notify_value")
        missing = len(emitted) - len(arrived)
        del notify[len(arrived):], hop[len(arrived):]
        if missing > 0:
            result.failures["check.undelivered"] += missing
        elif missing < 0:
            result.failures["check.notify_extra"] += -missing


WORKLOADS = {w.name: w for w in (PollHot, SessionChurn, NotifyMixed)}
