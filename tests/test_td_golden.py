"""Golden outcomes of parsing malformed fixture TDs.

Each case takes one of the three fixture TDs and replaces one JSON value in
it, at any depth, with a value of another JSON kind (true or false, an
integer, a float, a string, an array, an object, or null) drawn from a
fixed seed. ``malformed_td_golden.json`` holds what ``parse_td`` made of
each case: ``"ok"``, or the error's class name and message.

A second table, ``mutant_td_golden.json``, covers every mutant that
``test_mutation.mutants`` makes of the three fixture TDs: value swaps, key
drops and halved strings. For a mutant that parses it records a SHA-256 of
the parsed TD's ``repr``, so a parser that drops or changes a field fails it
too. A change to the parser must keep every entry of both tables word for
word.

To record both tables again, run ``PYTHONPATH=src python tests/test_td_golden.py``.
"""

import hashlib
import json
import random
import string
import sys
from pathlib import Path

import pytest

from wotble import parse_td
from test_mutation import mutants

HERE = Path(__file__).resolve().parent
FIXTURES = HERE.parent / "fixtures"
TDS = ("ble-lamp.td.json", "flower-sensor.td.json", "thermo-beacon.td.json")
GOLDEN = HERE / "malformed_td_golden.json"
MUTANT_GOLDEN = HERE / "mutant_td_golden.json"
SEED = 20221123

#: The JSON kinds a value is replaced with, and the Python type json gives each.
KINDS = {
    "bool": bool,
    "int": int,
    "float": float,
    "str": str,
    "list": list,
    "object": dict,
    "null": type(None),
}


def _text(rng: random.Random) -> str:
    # A ":" now and then makes a CURIE, with a prefix a TD may not declare.
    alphabet = string.ascii_letters + string.digits + ":-"
    return "".join(rng.choice(alphabet) for _ in range(rng.randrange(1, 10)))


def _value(kind: str, rng: random.Random):
    if kind == "bool":
        return rng.random() < 0.5
    if kind == "int":
        return rng.randrange(-1000, 100_000)
    if kind == "float":
        return round(rng.uniform(-1000.0, 1000.0), 3)
    if kind == "str":
        return _text(rng)
    if kind == "list":
        return [rng.randrange(100), _text(rng)]
    if kind == "object":
        return {_text(rng): rng.randrange(100)}
    return None


def _paths(node, path=()):
    """The path of every value below ``node``, parents before children."""
    children = (node.items() if isinstance(node, dict)
                else enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield path + (key,), child
        yield from _paths(child, path + (key,))


def _replaced(doc, path, value):
    doc = json.loads(json.dumps(doc))  # a deep copy
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


def cases():
    """``(case id, document text)`` for every malformed TD, in a fixed order."""
    rng = random.Random(SEED)
    for name in TDS:
        doc = json.loads((FIXTURES / name).read_text())
        for path, current in _paths(doc):
            where = "/" + "/".join(str(key) for key in path)
            for kind, kind_type in KINDS.items():
                if type(current) is kind_type:
                    continue  # not a wrong kind for this value
                case_id = f"{name} {where} {kind}"
                yield case_id, json.dumps(_replaced(doc, path, _value(kind, rng)))


def outcome(text: str) -> str:
    try:
        parse_td(text)
    except Exception as exc:  # a bare Python error is recorded too
        return f"{type(exc).__name__}: {exc}"
    return "ok"


def mutant_cases():
    """``(case id, document text)`` for every mutant of each fixture TD."""
    for name in TDS:
        doc = json.loads((FIXTURES / name).read_text())
        for label, mutant in mutants(doc):
            yield f"{name} {label}", json.dumps(mutant)


def fingerprint(text: str) -> str:
    """The error's class and message, or a digest of the TD that parsed."""
    try:
        td = parse_td(text)
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"
    return "sha256:" + hashlib.sha256(repr(td).encode()).hexdigest()


CASES = dict(cases())
MUTANT_CASES = dict(mutant_cases())


def test_every_case_is_in_the_table():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(CASES)


@pytest.mark.parametrize("name", TDS)
def test_malformed_tds_raise_the_recorded_errors(name):
    golden = json.loads(GOLDEN.read_text())
    seen = {case: outcome(text) for case, text in CASES.items()
            if case.startswith(name + " ")}
    assert {case: (golden[case], got) for case, got in seen.items()
            if golden[case] != got} == {}


def test_every_mutant_is_in_the_table():
    assert sorted(json.loads(MUTANT_GOLDEN.read_text())) == sorted(MUTANT_CASES)


@pytest.mark.parametrize("name", TDS)
def test_td_mutants_parse_to_the_recorded_outcomes(name):
    golden = json.loads(MUTANT_GOLDEN.read_text())
    seen = {case: fingerprint(text) for case, text in MUTANT_CASES.items()
            if case.startswith(name + " ")}
    assert {case: (golden[case], got) for case, got in seen.items()
            if golden[case] != got} == {}


if __name__ == "__main__":
    for path, run, table in ((GOLDEN, outcome, CASES), (MUTANT_GOLDEN, fingerprint, MUTANT_CASES)):
        path.write_text(json.dumps({case: run(text) for case, text in table.items()},
                                   indent=0, sort_keys=True) + "\n")
        print(f"{len(table)} cases written to {path}", file=sys.stderr)
