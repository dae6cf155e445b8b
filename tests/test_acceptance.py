"""Acceptance suite: one test per criterion, at the stated tolerances.

conftest prints a `[acceptance] <criterion>: PASS/FAIL` line for each test in
this module.
"""

import json
import math
import queue
import random
import time
import uuid

import pytest

from wotble import (
    BdoSpec,
    BenchStats,
    Endianess,
    GattMethod,
    GattUri,
    SimTransport,
    VirtualClock,
    WotOperation,
    consume,
    decode,
    encode,
    expand_uuid,
    format_gatt_uri,
    map_operation,
    parse_gatt_uri,
    parse_td,
    parse_td_file,
    run_bench,
)
from wotble.bench import BenchPlan
from wotble.errors import AttLengthExceeded, Busy, ValueTooLong
from conftest import (
    BEACON_CHAR,
    BEACON_MAC,
    BEACON_SERVICE,
    BEACON_TD,
    LAMP_CHAR,
    LAMP_MAC,
    LAMP_SERVICE,
    LAMP_TD,
    NETWORK_CONFIG,
    SENSOR_MAC,
    SENSOR_TD,
    RecordingTransport,
    make_network,
    writes,
)


def test_criterion_01_table_mapping_exhaustive():
    expected = {
        WotOperation.READPROPERTY: GattMethod.READ,
        WotOperation.WRITEPROPERTY: GattMethod.WRITE,
        WotOperation.INVOKEACTION: GattMethod.WRITE,
        WotOperation.READALLPROPERTIES: GattMethod.READ,
        WotOperation.WRITEALLPROPERTIES: GattMethod.WRITE,
        WotOperation.READMULTIPLEPROPERTIES: GattMethod.READ,
        WotOperation.WRITEMULTIPLEPROPERTIES: GattMethod.WRITE,
        WotOperation.SUBSCRIBEEVENT: GattMethod.NOTIFY,
        WotOperation.UNSUBSCRIBEEVENT: GattMethod.NOTIFY,
    }
    assert set(expected) == set(WotOperation)
    assert {op: map_operation(op, None) for op in WotOperation} == expected
    write_ops = (WotOperation.WRITEPROPERTY, WotOperation.INVOKEACTION,
                 WotOperation.WRITEALLPROPERTIES, WotOperation.WRITEMULTIPLEPROPERTIES)
    for op in write_ops:
        assert map_operation(op, GattMethod.WRITE) is GattMethod.WRITE
        assert map_operation(op, GattMethod.WRITE_WITHOUT_RESPONSE) is \
            GattMethod.WRITE_WITHOUT_RESPONSE


def test_criterion_02_golden_write_flow_is_bit_exact():
    net = make_network(clock=VirtualClock())
    transport = RecordingTransport(net, timeout_s=10.0)
    thing = consume(parse_td_file(LAMP_TD), transport)
    thing.write_property("power", {"on": 1})
    golden = bytes([0x7E, 0x00, 0x04, 0x01, 0x00, 0x00, 0x00, 0x00, 0xEF])
    assert writes(transport) == [(golden, True)]
    assert net.characteristic(LAMP_MAC, LAMP_SERVICE, LAMP_CHAR).value == golden
    net.close()


def test_criterion_03_codec_matches_brute_force_oracle():
    def oracle_value(payload, signed, little):
        digits = payload if little else payload[::-1]
        raw = sum(b * 256 ** i for i, b in enumerate(digits))
        if signed and raw >= 256 ** len(payload) // 2:
            raw -= 256 ** len(payload)
        return raw

    started = time.monotonic()
    for bytelength in (1, 2):
        for endianess in (Endianess.LITTLE, Endianess.BIG):
            for signed in (False, True):
                spec = BdoSpec(bytelength=bytelength, signed=signed,
                               endianess=endianess)
                little = endianess is Endianess.LITTLE
                for raw in range(256 ** bytelength):
                    payload = raw.to_bytes(bytelength, "big")
                    value = oracle_value(payload, signed, little)
                    assert decode(payload, spec) == value
                    assert encode(value, spec) == payload
    assert time.monotonic() - started < 10.0


def test_criterion_04_codec_round_trip_property():
    rng = random.Random(20_240_202)
    scales = [0.1, 0.5, 2.0, 0.01, 10.0]
    for _ in range(10_000):
        scale = 1.0 if rng.random() < 0.5 else rng.choice(scales)
        bytelength = rng.randint(1, 8 if scale == 1.0 else 5)
        spec = BdoSpec(
            bytelength=bytelength,
            signed=rng.random() < 0.5,
            endianess=rng.choice([Endianess.LITTLE, Endianess.BIG]),
            scale=scale,
        )
        lo = -(256 ** bytelength // 2) if spec.signed else 0
        hi = 256 ** bytelength // 2 - 1 if spec.signed else 256 ** bytelength - 1
        raw = rng.randint(lo, hi)
        if scale == 1.0:
            assert decode(encode(raw, spec), spec) == raw
        else:
            value = raw * scale + rng.uniform(-0.499, 0.499) * scale
            assert abs(decode(encode(value, spec), spec) - value) <= scale / 2


def test_criterion_05_layout_defaults():
    td = parse_td(json.dumps({
        "@context": [
            "https://www.w3.org/2022/wot/td/v1",
            {"bdo": "https://freumi.inrupt.net/BinaryDataOntology.ttl#"},
        ],
        "title": "Defaults Thing",
        "properties": {
            "level": {
                "type": "integer",
                "bdo:bytelength": 2,
                "forms": [{
                    "href": "gatt://AA-BB-CC-DD-EE-FF/fff0/fff3",
                    "op": "readproperty",
                    "contentType": "application/x.binary-data-stream",
                }],
            },
        },
    }))
    spec = td.properties["level"].bdo
    assert spec.signed is False
    assert spec.endianess is Endianess.LITTLE
    assert spec.offset == 0
    assert spec.scale == 1.0


def test_criterion_06_uri_round_trip_and_normalization():
    rng = random.Random(20_240_303)
    for _ in range(1000):
        mac = ":".join(f"{rng.randrange(256):02X}" for _ in range(6))
        service = (expand_uuid(rng.randrange(0x10000)) if rng.random() < 0.5
                   else uuid.UUID(bytes=rng.randbytes(16)))
        characteristic = uuid.UUID(bytes=rng.randbytes(16))
        original = GattUri(mac, service, characteristic)
        assert parse_gatt_uri(format_gatt_uri(original)) == original

        dashed = parse_gatt_uri(f"gatt://{mac.replace(':', '-')}/{service}/{characteristic}")
        coloned = parse_gatt_uri(f"gatt://{mac}/{service}/{characteristic}")
        assert dashed == coloned == original

    short = parse_gatt_uri("gatt://AA:BB:CC:DD:EE:FF/fff0/fff3")
    long = parse_gatt_uri(
        "gatt://AA-BB-CC-DD-EE-FF/0000fff0-0000-1000-8000-00805f9b34fb/"
        "0000FFF3-0000-1000-8000-00805F9B34FB"
    )
    assert short == long


def test_criterion_07_listing_parity():
    net = make_network(clock=VirtualClock())

    raw = SimTransport(net, timeout_s=60.0)
    raw.connect(SENSOR_MAC)
    raw.discover_gatt(SENSOR_MAC)
    buffer = raw.read(parse_gatt_uri(
        f"gatt://{SENSOR_MAC.replace(':', '-')}/00001204-0000-1000-8000-00805f9b34fb/"
        "00001a01-0000-1000-8000-00805f9b34fb"
    ))
    raw_value = int.from_bytes(buffer[0:1], "little")
    raw.disconnect(SENSOR_MAC)

    thing = consume(parse_td_file(SENSOR_TD), SimTransport(net, timeout_s=60.0))
    thing.connect()
    high_value = thing.read_property("moisture")
    thing.disconnect()

    assert high_value == raw_value == 42
    net.close()


INTERVAL_BY_TD = [(LAMP_TD, 50.0), (BEACON_TD, 200.0), (SENSOR_TD, 2000.0)]


def _connect_plan(td_path, seed):
    return BenchPlan(
        td_path=td_path,
        operations=("connect",),
        repetitions=25,
        warmup=1,
        transport=f"sim:{NETWORK_CONFIG}",
        seed=seed,
        timeout_ms=60_000.0,
    )


@pytest.mark.parametrize("mode,budget_s", [("virtual", 5.0), ("real", 120.0)])
def test_criterion_08_advertising_interval_trend(mode, budget_s):
    started = time.monotonic()
    means = []
    for seed_offset, (td_path, interval_ms) in enumerate(INTERVAL_BY_TD):
        clock = VirtualClock() if mode == "virtual" else None
        stats = run_bench(_connect_plan(td_path, 100 + seed_offset), clock=clock)
        (connect_stats,) = stats
        assert connect_stats.n == 25
        assert connect_stats.failures == 0
        for sample in connect_stats.samples:
            assert sample <= interval_ms + 50.0
        means.append(connect_stats.mean_ms)
    assert means[0] < means[1] < means[2]
    assert time.monotonic() - started < budget_s


def test_criterion_09_statistics_match_two_pass_oracle():
    def two_pass(samples):
        n = len(samples)
        mean = sum(samples) / n
        if n < 2:
            return mean, 0.0
        variance = sum((x - mean) ** 2 for x in samples) / (n - 1)
        return mean, math.sqrt(variance / n)

    frozen = BenchStats.from_samples("read", [1.0, 2.0, 3.0])
    assert frozen.mean_ms == pytest.approx(2.0, rel=1e-9)
    assert frozen.sem_ms == pytest.approx(0.5773502691896257, rel=1e-9)

    rng = random.Random(20_240_404)
    for _ in range(100):
        samples = [rng.uniform(0.1, 3000.0) for _ in range(rng.randint(2, 40))]
        stats = BenchStats.from_samples("connect", samples)
        mean, sem = two_pass(samples)
        assert stats.mean_ms == pytest.approx(mean, rel=1e-9)
        assert stats.sem_ms == pytest.approx(sem, rel=1e-9)

    plan = BenchPlan(
        td_path=SENSOR_TD,
        operations=("connect", "disconnect", "read"),
        repetitions=10,
        warmup=1,
        transport=f"sim:{NETWORK_CONFIG}",
        seed=9,
        property="moisture",
        timeout_ms=60_000.0,
    )
    for stats in run_bench(plan, clock=VirtualClock()):
        mean, sem = two_pass(list(stats.samples))
        assert stats.mean_ms == pytest.approx(mean, rel=1e-9)
        assert stats.sem_ms == pytest.approx(sem, rel=1e-9)


def test_criterion_10_att_cap_boundary():
    assert len(encode(0, BdoSpec(bytelength=8, offset=504))) == 512
    with pytest.raises(AttLengthExceeded):
        encode(0, BdoSpec(bytelength=8, offset=505))
    with pytest.raises(AttLengthExceeded):
        encode({}, BdoSpec(pattern="00" * 513, variables={}))

    net = make_network(clock=VirtualClock())
    transport = SimTransport(net, timeout_s=10.0)
    transport.connect(LAMP_MAC)
    lamp_uri = parse_gatt_uri(
        f"gatt://{LAMP_MAC.replace(':', '-')}/{LAMP_SERVICE}/{LAMP_CHAR}"
    )
    transport.write(lamp_uri, bytes(512), with_response=True)
    assert transport.read(lamp_uri) == bytes(512)
    with pytest.raises(ValueTooLong):
        transport.write(lamp_uri, bytes(513), with_response=True)
    net.close()


def test_criterion_11_single_connection_peripheral():
    net = make_network(clock=VirtualClock())
    first = SimTransport(net, timeout_s=10.0)
    second = SimTransport(net, timeout_s=10.0)
    first.connect(LAMP_MAC)
    with pytest.raises(Busy):
        second.connect(LAMP_MAC)
    lamp_uri = parse_gatt_uri(
        f"gatt://{LAMP_MAC.replace(':', '-')}/{LAMP_SERVICE}/{LAMP_CHAR}"
    )
    assert first.read(lamp_uri) == bytes.fromhex("7e00040000000000ef")
    net.close()


def test_criterion_12_notification_semantics():
    # Scripted sequence decodes through the layout, in order: fa -> 25.0.
    net = make_network(seed=0)
    thing = consume(parse_td_file(BEACON_TD), SimTransport(net, timeout_s=10.0))
    received: queue.Queue = queue.Queue()
    subscription = thing.subscribe_event("temperature", received.put)
    values = [received.get(timeout=2.0) for _ in range(3)]
    assert values[0] == pytest.approx(25.0)
    assert values == [pytest.approx(25.0), pytest.approx(0.0), pytest.approx(10.0)]
    thing.unsubscribe_event(subscription)
    net.close()

    # Nothing is delivered after unsubscribe returns.
    net = make_network(seed=0, auto_notify=False)
    thing = consume(parse_td_file(BEACON_TD), SimTransport(net, timeout_s=10.0))
    late: queue.Queue = queue.Queue()
    subscription = thing.subscribe_event("temperature", late.put)
    net.emit_next(BEACON_MAC, BEACON_SERVICE, BEACON_CHAR)
    assert late.get(timeout=2.0) == pytest.approx(25.0)
    thing.unsubscribe_event(subscription)
    net.emit_next(BEACON_MAC, BEACON_SERVICE, BEACON_CHAR)
    net.emit(BEACON_MAC, BEACON_SERVICE, BEACON_CHAR, b"\x63")
    with pytest.raises(queue.Empty):
        late.get(timeout=0.3)
    net.close()
