import argparse
import json

import pytest

from wotble import SimTransport
from wotble.cli import build_parser, main
from conftest import (
    BEACON_TD,
    BENCH_PLAN,
    FIXTURES,
    LAMP_TD,
    NETWORK_CONFIG,
    SENSOR_TD,
    WRONG_TYPED_CONFIGS,
)

SIM = f"sim:{NETWORK_CONFIG}"


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_read_prints_decoded_value(capsys):
    code, out, _ = run(capsys, "read", SENSOR_TD, "moisture", "--transport", SIM)
    assert code == 0
    assert out.strip() == "42"


def test_read_json_output(capsys):
    code, out, _ = run(capsys, "read", SENSOR_TD, "moisture",
                       "--transport", SIM, "--output", "json")
    assert code == 0
    assert json.loads(out) == {"property": "moisture", "value": 42}


def test_write_exit_codes(capsys):
    code, out, _ = run(capsys, "write", LAMP_TD, "power", '{"on": 1}',
                       "--transport", SIM)
    assert code == 0 and out.strip() == "ok"

    code, _, err = run(capsys, "write", LAMP_TD, "power", '{"on": 9}',
                       "--transport", SIM)
    assert code == 1
    assert "maximum" in err


def test_write_rejects_non_json_value(capsys):
    code, _, err = run(capsys, "write", LAMP_TD, "power", "not-json",
                       "--transport", SIM)
    assert code == 2
    assert "not JSON" in err


def test_write_rejects_an_integer_past_the_digit_limit(capsys):
    code, _, err = run(capsys, "write", LAMP_TD, "power", '{"on": ' + "1" * 5000 + "}",
                       "--transport", SIM)
    assert code == 2
    assert "not JSON" in err


def test_subscribe_collects_notifications(capsys):
    code, out, _ = run(capsys, "subscribe", BEACON_TD, "temperature",
                       "--count", "3", "--transport", SIM)
    assert code == 0
    assert out.split() == ["25.0", "0.0", "10.0"]


def test_subscribe_without_a_further_notification_is_an_interaction_error(capsys):
    # The beacon's script has three values; the fourth wait times out. Seed 1
    # draws a discovery delay inside the 50 ms connect timeout.
    code, out, err = run(capsys, "subscribe", BEACON_TD, "temperature", "--count", "4",
                         "--timeout-ms", "50", "--seed", "1", "--transport", SIM)
    assert code == 1
    assert out.split() == ["25.0", "0.0", "10.0"]
    assert "no notification within 50 ms" in err


def test_invoke_writes_the_encoded_action_input(capsys, tmp_path, monkeypatch):
    doc = json.loads(LAMP_TD.read_text())
    power = doc["properties"]["power"]
    doc["actions"] = {"switch": {**power, "forms": [{**power["forms"][0], "op": "invokeaction"}]}}
    td_file = tmp_path / "lamp-action.td.json"
    td_file.write_text(json.dumps(doc))
    written = []
    write = SimTransport.write

    def recording_write(self, uri, payload, with_response, holder=None):
        write(self, uri, payload, with_response, holder)  # a write that raises is not logged
        written.append(payload)

    monkeypatch.setattr(SimTransport, "write", recording_write)
    code, out, _ = run(capsys, "invoke", td_file, "switch", '{"on": 1}', "--transport", SIM)
    assert code == 0 and out.strip() == "ok"
    assert written == [bytes.fromhex("7e00040100000000ef")]


def test_validate_ok(capsys):
    code, out, _ = run(capsys, "validate", LAMP_TD)
    assert code == 0
    assert "ok" in out


def unconnectable_lamp_td(tmp_path):
    """The lamp TD marked not connectable, although it has forms: an error."""
    doc = json.loads(LAMP_TD.read_text())
    doc["sbo:isConnectable"] = False
    broken = tmp_path / "broken.td.json"
    broken.write_text(json.dumps(doc))
    return broken


def test_validate_broken_td_exits_2(capsys, tmp_path):
    code, out, _ = run(capsys, "validate", unconnectable_lamp_td(tmp_path))
    assert code == 2
    assert "connectability-conflict" in out


def test_validate_json_output_lists_each_diagnostic(capsys, tmp_path):
    code, out, _ = run(capsys, "validate", unconnectable_lamp_td(tmp_path),
                       "--output", "json")
    diagnostics = json.loads(out)
    assert code == 2 and diagnostics
    assert {d["code"] for d in diagnostics} == {"connectability-conflict"}
    assert {d["severity"] for d in diagnostics} == {"error"}
    assert run(capsys, "validate", LAMP_TD, "--output", "json")[:2] == (0, "[]\n")


def test_validate_warning_only_exits_0(capsys, tmp_path):
    doc = json.loads(SENSOR_TD.read_text())
    doc["properties"]["moisture"]["forms"][0]["href"] = "http://example.com/x"
    warned = tmp_path / "warned.td.json"
    warned.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "validate", warned)
    assert code == 0
    assert "bad-uri-scheme" in out


def test_missing_td_file_is_usage_error(capsys):
    code, _, err = run(capsys, "read", "no-such.td.json", "power",
                       "--transport", SIM)
    assert code == 2


@pytest.mark.parametrize("config", WRONG_TYPED_CONFIGS)
def test_wrong_typed_sim_config_is_usage_error(capsys, tmp_path, config):
    path = tmp_path / "net.sim.json"
    path.write_text(json.dumps(config))
    code, out, err = run(capsys, "read", SENSOR_TD, "moisture",
                         "--transport", f"sim:{path}")
    assert code == 2 and out == ""
    # A device field's message names the device; a top-level knob's names the knob.
    where = "readLatencyMs" if "readLatencyMs" in config else "device AA:BB:CC:DD:EE:FF:"
    assert err.startswith(f"error: {where} ")


def test_unknown_property_is_interaction_error(capsys):
    code, _, err = run(capsys, "read", SENSOR_TD, "altitude", "--transport", SIM)
    assert code == 1
    assert "altitude" in err


def test_missing_transport_is_usage_error(capsys):
    code, _, err = run(capsys, "read", SENSOR_TD, "moisture")
    assert code == 2
    assert "--transport" in err


def test_host_transport_unavailable(capsys):
    # Only simulated transports can be named; any other spec is a usage error.
    code, _, err = run(capsys, "read", SENSOR_TD, "moisture", "--transport", "host")
    assert code == 2
    assert "unknown transport 'host'" in err


def test_bench_csv_output(capsys):
    code, out, _ = run(capsys, "bench", BENCH_PLAN, "--virtual-clock",
                       "--output", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "operation,n,mean_ms,sem_ms"
    rows = [line.split(",") for line in lines[1:]]
    assert [r[0] for r in rows] == ["connect", "disconnect", "read"]
    assert all(r[1] == "25" for r in rows)


def test_bench_json_output(capsys):
    code, out, _ = run(capsys, "bench", BENCH_PLAN, "--virtual-clock", "--output", "json")
    assert code == 0
    payload = json.loads(out)
    assert [s["operation"] for s in payload] == ["connect", "disconnect", "read"]
    assert all(s["n"] == len(s["samples_ms"]) == 25 and s["failures"] == 0
               for s in payload)


def test_bench_table_output(capsys):
    code, out, _ = run(capsys, "bench", BENCH_PLAN, "--virtual-clock")
    assert code == 0
    assert "Flower Care Sensor" in out
    assert "Connect / ms" in out


def test_bench_missing_plan_is_usage_error(capsys):
    code, _, _ = run(capsys, "bench", "no-such-plan.json")
    assert code == 2


def test_bench_wrong_typed_plan_is_usage_error(capsys, tmp_path):
    raw = json.loads(BENCH_PLAN.read_text())
    raw.update(td=str(SENSOR_TD), transport=f"sim:{NETWORK_CONFIG}", timeoutMs="5")
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps(raw))
    code, _, err = run(capsys, "bench", plan, "--virtual-clock")
    assert code == 2
    assert err.startswith("error:") and "timeoutMs" in err


def test_bench_whose_every_repetition_fails_names_the_cause(capsys, tmp_path):
    raw = json.loads(BENCH_PLAN.read_text())
    raw.update(td=str(SENSOR_TD), transport=f"sim:{NETWORK_CONFIG}", operations=["read"],
               repetitions=3, property="nope")
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps(raw))
    code, out, err = run(capsys, "bench", plan, "--virtual-clock")
    assert (code, out) == (1, "")
    assert err == "error: all 3 'read' repetitions failed (UnknownAffordance 3)\n"


def test_sim_list_lists_devices(capsys):
    code, out, _ = run(capsys, "sim", "list", NETWORK_CONFIG)
    assert code == 0
    assert "3 device(s)" in out
    assert "BE:58:30:00:CC:11" in out


def test_the_removed_disconnect_after_policy_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["read", str(SENSOR_TD), "moisture", "--transport", SIM,
              "--policy", "disconnect_after"])
    captured = capsys.readouterr()
    assert exit_info.value.code == 2 and captured.out == ""
    assert "argument --policy: invalid choice: 'disconnect_after'" in captured.err


@pytest.mark.parametrize("timeout_ms", ["nan", "inf", "0", "-5", "1e13", "abc"])
def test_timeout_a_wait_cannot_honour_is_usage_error(capsys, timeout_ms):
    # With `subscribe`, inf and 1e13 once ended in an OverflowError from
    # queue.get, and nan in a wait that never ended. `read` is used here, so
    # that an accepted value fails the test instead of hanging it.
    with pytest.raises(SystemExit) as exit_info:
        main(["read", str(SENSOR_TD), "moisture",
              "--transport", SIM, f"--timeout-ms={timeout_ms}"])
    captured = capsys.readouterr()
    assert exit_info.value.code == 2 and captured.out == ""
    assert "argument --timeout-ms:" in captured.err
    assert "Traceback" not in captured.err


#: The flags each subcommand takes, and the choices of its ``--output``.
FLAG_TABLE = {
    "read": {"--transport", "--seed", "--timeout-ms", "--policy", "--output"},
    "write": {"--transport", "--seed", "--timeout-ms", "--policy", "--output"},
    "invoke": {"--transport", "--seed", "--timeout-ms", "--policy", "--output"},
    "subscribe": {"--transport", "--seed", "--timeout-ms", "--policy", "--output",
                  "--count"},
    "validate": {"--output"},
    "bench": {"--output", "--virtual-clock"},
    "sim list": set(),
}
OUTPUT_CHOICES = {"bench": ("table", "csv", "json")}


def subcommands(parser, name=()):
    """Each subcommand's name and parser, walked from ``parser``."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for word, child in action.choices.items():
                yield from subcommands(child, (*name, word))
            return
    yield " ".join(name), parser


def flags(parser):
    return {option: action for action in parser._actions
            for option in action.option_strings if option not in ("-h", "--help")}


def test_each_subcommand_takes_only_the_flags_it_reads():
    root = build_parser()
    table = {name: flags(parser) for name, parser in subcommands(root)}
    assert flags(root) == {}
    assert {name: set(options) for name, options in table.items()} == FLAG_TABLE
    assert sum(map(len, table.values())) == 24
    for name, options in table.items():
        if "--output" in options:
            assert options["--output"].choices == OUTPUT_CHOICES.get(name, ("table", "json"))


@pytest.mark.parametrize("argv", [
    ["bench", BENCH_PLAN, "--virtual-clock", "--seed", "1"],
    ["bench", BENCH_PLAN, "--virtual-clock", "--timeout-ms", "1"],
    ["validate", LAMP_TD, "--transport", SIM],
    ["sim", "list", NETWORK_CONFIG, "--output", "json"],
    ["read", SENSOR_TD, "moisture", "--transport", SIM, "--output", "csv"],
    ["--output", "json", "read", SENSOR_TD, "moisture", "--transport", SIM],
], ids=["bench-seed", "bench-timeout", "validate-transport", "sim-list-output",
        "read-csv", "root-position"])
def test_a_flag_its_command_does_not_read_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exit_info:
        main([str(a) for a in argv])
    captured = capsys.readouterr()
    assert exit_info.value.code == 2 and captured.out == ""
    assert "error:" in captured.err and "Traceback" not in captured.err
