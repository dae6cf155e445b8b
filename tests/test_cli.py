import json

import pytest

from wotble.cli import main
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


def test_validate_ok(capsys):
    code, out, _ = run(capsys, "validate", LAMP_TD)
    assert code == 0
    assert "ok" in out


def test_validate_broken_td_exits_2(capsys, tmp_path):
    doc = json.loads(LAMP_TD.read_text())
    doc["sbo:isConnectable"] = False
    broken = tmp_path / "broken.td.json"
    broken.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "validate", broken)
    assert code == 2
    assert "connectability-conflict" in out


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


def test_sim_serve_lists_devices(capsys):
    code, out, _ = run(capsys, "sim", "serve", NETWORK_CONFIG, "--duration-s", "0.05")
    assert code == 0
    assert "3 device(s)" in out
    assert "BE:58:30:00:CC:11" in out


def test_global_flags_accepted_before_subcommand(capsys):
    code, out, _ = run(capsys, "--transport", SIM, "--output", "json",
                       "read", SENSOR_TD, "moisture")
    assert code == 0
    assert json.loads(out)["value"] == 42
