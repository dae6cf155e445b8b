"""Seeded mutation of every JSON document the package reads.

Each mutant of a fixture TD, the sim config or the bench plan changes one
node: its value is swapped for one of another JSON type, its key is dropped,
or a string is cut in half. Whatever the mutant says, only ``WotBleError``
subclasses may escape the public paths that read it, and the CLI exits with
0, 1 or 2. The sim config and the plan also set their optional fields, so
that those are mutated too. Each TD mutant also parses to the same TD, or
the same error, whether the term tables start empty or full.
"""

import dataclasses
import json
import random

import pytest

import wotble.td as td_module
from wotble import (
    SimTransport,
    VirtualClock,
    consume,
    load_bench_plan,
    load_sim_config,
    parse_td,
    run_bench,
)
from wotble.cli import main
from wotble.errors import WotBleError
from conftest import BEACON_TD, BENCH_PLAN, LAMP_TD, NETWORK_CONFIG, SENSOR_TD

SEED = 9

#: What a node's value is swapped for: every JSON kind, and the numbers a
#: count or a delay must reject.
SWAPS = (None, True, 0, -1, 1.5, "x", [], ["x"], {})

_DROP = object()

NETWORK = {
    **json.loads(NETWORK_CONFIG.read_text()),
    "processingDelayMs": 1, "connectSetupMs": 2, "readLatencyMs": 1,
    "writeLatencyMs": 1, "disconnectLatencyMs": 1,
}
PLAN = {**json.loads(BENCH_PLAN.read_text()), "policy": "keep_connected",
        "timeoutMs": 10_000}


def _nodes(node, path=()):
    """``(path, value)`` of every node below ``node``, containers included."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield path + (key,), child
        yield from _nodes(child, path + (key,))


def _edit(doc, path, value):
    copy = json.loads(json.dumps(doc))
    parent = copy
    for key in path[:-1]:
        parent = parent[key]
    if value is _DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return copy


def mutants(doc):
    """``(label, mutant)`` for every one-node edit of ``doc``, in order."""
    for path, value in list(_nodes(doc)):
        for swap in SWAPS:
            if not (type(swap) is type(value) and swap == value):
                yield f"{list(path)} = {swap!r}", _edit(doc, path, swap)
        if isinstance(path[-1], str):
            yield f"del {list(path)}", _edit(doc, path, _DROP)
        if isinstance(value, str) and value:
            cut = value[:len(value) // 2]
            yield f"{list(path)} = {cut!r}", _edit(doc, path, cut)


def _escapes(run, docs) -> list[str]:
    """What ``run`` raised, other than a WotBleError, for each labelled doc."""
    escaped = []
    for label, doc in docs:
        try:
            run(doc)
        except WotBleError:
            pass
        except Exception as exc:
            escaped.append(f"{label}: {type(exc).__name__}: {exc}")
    return escaped


def _attempt(call, *args):
    try:
        call(*args)
    except WotBleError:
        pass


def _use_td(doc) -> None:
    """Parse, consume, and run every operation the TD's affordances name."""
    td = parse_td(json.dumps(doc))
    with load_sim_config(NETWORK, clock=VirtualClock(), seed=SEED) as network:
        thing = consume(td, SimTransport(network))
        try:
            for name in td.properties:
                _attempt(thing.read_property, name)
                _attempt(thing.write_property, name, 1)
                _attempt(thing.write_property, name, {"on": 1})
            for name in td.actions:
                _attempt(thing.invoke_action, name, 1)
            for name in td.events:
                try:
                    subscription = thing.subscribe_event(name, lambda value: None)
                except WotBleError:
                    continue
                thing.unsubscribe_event(subscription)
        finally:
            thing.disconnect()


@pytest.fixture
def plan_dir(tmp_path):
    """A folder with the plan's TD and sim config, so relative paths resolve."""
    (tmp_path / "flower-sensor.td.json").write_text(SENSOR_TD.read_text())
    (tmp_path / "network.sim.json").write_text(json.dumps(NETWORK))
    return tmp_path


def _run_plan(plan_dir, doc) -> None:
    plan_file = plan_dir / "plan.json"
    plan_file.write_text(json.dumps(doc))
    run_bench(load_bench_plan(plan_file), clock=VirtualClock())


def _run_network(plan_dir, doc) -> None:
    config = plan_dir / "mutant.sim.json"
    config.write_text(json.dumps(doc))
    plan = load_bench_plan(BENCH_PLAN)
    run_bench(dataclasses.replace(plan, transport=f"sim:{config}", repetitions=2),
              clock=VirtualClock())


@pytest.mark.parametrize("fixture", [LAMP_TD, SENSOR_TD, BEACON_TD],
                         ids=lambda path: path.name)
def test_td_mutants_raise_only_package_errors(fixture):
    escaped = _escapes(_use_td, mutants(json.loads(fixture.read_text())))
    assert not escaped, "\n".join(escaped)


def _outcome(doc):
    """The parsed TD, or the class and message of the error parsing raised."""
    try:
        return parse_td(json.dumps(doc))
    except WotBleError as exc:
        return type(exc), str(exc)


def test_term_tables_change_no_td_mutant_outcome():
    fixtures = [json.loads(path.read_text()) for path in (LAMP_TD, SENSOR_TD, BEACON_TD)]
    docs = [doc for fixture in fixtures for _, doc in mutants(fixture)]
    cold = []
    for doc in docs:
        td_module._context.cache_clear()
        cold.append(_outcome(doc))
    for doc in fixtures + docs:
        _outcome(doc)
    warm = [_outcome(doc) for doc in docs]
    assert sum(type(outcome) is tuple for outcome in cold) > len(docs) // 4
    mismatched = [(json.dumps(doc), before, after)
                  for doc, before, after in zip(docs, cold, warm) if before != after]
    assert not mismatched, mismatched[:3]


def test_sim_config_mutants_raise_only_package_errors(plan_dir):
    escaped = _escapes(lambda doc: _run_network(plan_dir, doc), mutants(NETWORK))
    assert not escaped, "\n".join(escaped)


def test_bench_plan_mutants_raise_only_package_errors(plan_dir):
    escaped = _escapes(lambda doc: _run_plan(plan_dir, doc), mutants(PLAN))
    assert not escaped, "\n".join(escaped)


def test_cli_exits_with_a_code_on_sampled_mutants(plan_dir, capsys):
    rng = random.Random(SEED)
    td_file = plan_dir / "mutant.td.json"
    config_plan = plan_dir / "config-plan.json"
    config_plan.write_text(json.dumps({**PLAN, "transport": "sim:mutant.sim.json",
                                       "repetitions": 2}))
    commands = [(doc, td_file, ["validate", str(td_file)])
                for fixture in (LAMP_TD, SENSOR_TD, BEACON_TD)
                for doc in rng.sample([m for _, m in mutants(
                    json.loads(fixture.read_text()))], 10)]
    commands += [(doc, plan_dir / "mutant.sim.json",
                  ["bench", str(config_plan), "--virtual-clock", "--output", "csv"])
                 for doc in rng.sample([m for _, m in mutants(NETWORK)], 15)]
    commands += [(doc, plan_dir / "plan.json",
                  ["bench", str(plan_dir / "plan.json"), "--virtual-clock"])
                 for doc in rng.sample([m for _, m in mutants(PLAN)], 15)]
    codes = set()
    for doc, path, argv in commands:
        path.write_text(json.dumps(doc))
        code = main(argv)
        assert code in (0, 1, 2), (argv, doc)
        codes.add(code)
    capsys.readouterr()
    assert codes >= {0, 2}
