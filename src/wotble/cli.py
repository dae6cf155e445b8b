"""Command-line front end.

Each subcommand takes only the flags it reads, after its name:

* ``read``, ``write``, ``invoke``: ``--transport``, ``--seed``,
  ``--timeout-ms``, ``--policy keep_connected|reconnect_per_operation``
  and ``--output table|json``;
* ``subscribe``: the same, plus ``--count``;
* ``validate``: ``--output table|json``;
* ``bench``: ``--output table|csv|json`` and ``--virtual-clock``; the plan
  file alone sets the seed, timeout, transport and policy;
* ``sim list``: no flag.

Any other flag, or a flag before the subcommand's name, is a usage error.
Exit codes: 0 on success, 1 for interaction errors, 2 for usage or
validation errors.
"""

from __future__ import annotations

import argparse
import json
import math
import queue
import sys
from contextlib import contextmanager

from . import bench as benchmod
from .clock import VirtualClock
from .consumer import ConnectionPolicy, consume
from .errors import (
    InvalidConfig,
    InvalidTd,
    PlanError,
    TdError,
    WotBleError,
)
from .td import Severity, parse_td_file, validate_td
from .transport import MAX_TIMEOUT_MS, load_sim_config, open_transport

USAGE_ERROR = 2
INTERACTION_ERROR = 1


def _timeout_ms(text: str) -> float:
    """Milliseconds that a wait can honour: finite, > 0 and at most
    ``MAX_TIMEOUT_MS``; anything else is a usage error."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not (math.isfinite(value) and 0 < value <= MAX_TIMEOUT_MS):
        raise argparse.ArgumentTypeError(
            f"must be a finite number > 0 and at most {MAX_TIMEOUT_MS:g}, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    # Each subcommand takes exactly the flags its handler reads, from these
    # two parents: one for the commands that print a result, one for the
    # commands that open a transport.
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--output", choices=("table", "json"), default="table")
    link = argparse.ArgumentParser(add_help=False)
    link.add_argument("--transport", help="'sim:<config.json>'")
    link.add_argument("--seed", type=int, help="RNG seed for the simulated network")
    link.add_argument("--timeout-ms", type=_timeout_ms, default=10_000.0,
                      help="connect and notification wait in ms (finite, > 0)")
    link.add_argument("--policy", default="keep_connected",
                      choices=[p.value for p in ConnectionPolicy])

    parser = argparse.ArgumentParser(
        prog="wotble",
        description="Interact with Bluetooth LE Things described by a TD, "
                    "over a simulated GATT transport.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("read", parents=[link, output], help="read and decode a property")
    p.add_argument("td")
    p.add_argument("property")
    p.set_defaults(run=cmd_read)

    p = sub.add_parser("write", parents=[link, output],
                       help="encode and write a property")
    p.add_argument("td")
    p.add_argument("property")
    p.add_argument("value", help="JSON value, e.g. 5 or '{\"on\": 1}'")
    p.set_defaults(run=cmd_write)

    p = sub.add_parser("invoke", parents=[link, output], help="invoke an action")
    p.add_argument("td")
    p.add_argument("action")
    p.add_argument("value", help="JSON value for the action input")
    p.set_defaults(run=cmd_invoke)

    p = sub.add_parser("subscribe", parents=[link, output],
                       help="print decoded event notifications")
    p.add_argument("td")
    p.add_argument("event")
    p.add_argument("--count", type=int, default=1,
                   help="number of notifications to wait for")
    p.set_defaults(run=cmd_subscribe)

    p = sub.add_parser("validate", parents=[output], help="report TD diagnostics")
    p.add_argument("td")
    p.set_defaults(run=cmd_validate)

    p = sub.add_parser("bench", help="run a latency benchmark plan")
    p.add_argument("plan")
    p.add_argument("--output", choices=("table", "csv", "json"), default="table")
    p.add_argument("--virtual-clock", action="store_true",
                   help="run on simulated time instead of the real clock")
    p.set_defaults(run=cmd_bench)

    p = sub.add_parser("sim", help="simulated network tools")
    sim_sub = p.add_subparsers(dest="sim_command", required=True)
    p = sim_sub.add_parser("list", help="list the devices a network config defines")
    p.add_argument("config")
    p.set_defaults(run=cmd_sim_list)

    return parser


@contextmanager
def _consumed(args):
    """Yield the TD's ConsumedThing; closes the simulated network built for it."""
    td = parse_td_file(args.td)
    if not args.transport:
        raise PlanError("this command needs --transport sim:<config>")
    transport = open_transport(args.transport, seed=args.seed,
                               timeout_s=args.timeout_ms / 1000.0)
    try:
        yield consume(td, transport, ConnectionPolicy(args.policy))
    finally:
        transport.network.close()


def _emit(args, payload: dict, plain) -> None:
    if args.output == "json":
        print(json.dumps(payload))
    else:
        print(plain)


def cmd_read(args) -> int:
    with _consumed(args) as thing:
        value = thing.read_property(args.property)
    _emit(args, {"property": args.property, "value": value}, value)
    return 0


def cmd_write(args) -> int:
    with _consumed(args) as thing:
        value = _json_value(args.value)
        thing.write_property(args.property, value)
    _emit(args, {"property": args.property, "written": value}, "ok")
    return 0


def cmd_invoke(args) -> int:
    with _consumed(args) as thing:
        value = _json_value(args.value)
        thing.invoke_action(args.action, value)
    _emit(args, {"action": args.action, "input": value}, "ok")
    return 0


def cmd_subscribe(args) -> int:
    with _consumed(args) as thing:
        received: queue.Queue = queue.Queue()
        subscription = thing.subscribe_event(args.event, received.put)
        try:
            for _ in range(max(args.count, 0)):
                try:
                    value = received.get(timeout=args.timeout_ms / 1000.0)
                except queue.Empty:
                    print(f"no notification within {args.timeout_ms:.0f} ms",
                          file=sys.stderr)
                    return INTERACTION_ERROR
                _emit(args, {"event": args.event, "value": value}, value)
        finally:
            thing.unsubscribe_event(subscription)
    return 0


def cmd_validate(args) -> int:
    td = parse_td_file(args.td)
    diagnostics = validate_td(td)
    if args.output == "json":
        print(json.dumps([
            {"severity": d.severity.value, "code": d.code.value,
             "message": d.message, "path": d.path}
            for d in diagnostics
        ]))
    else:
        for diagnostic in diagnostics:
            print(diagnostic)
        if not diagnostics:
            print(f"{args.td}: ok")
    if any(d.severity is Severity.ERROR for d in diagnostics):
        return USAGE_ERROR
    return 0


def cmd_bench(args) -> int:
    plan = benchmod.load_bench_plan(args.plan)
    clock = VirtualClock() if args.virtual_clock else None
    stats = benchmod.run_bench(plan, clock=clock)
    if args.output == "csv":
        print(benchmod.to_csv(stats), end="")
    elif args.output == "json":
        print(benchmod.to_json(stats))
    else:
        title = parse_td_file(plan.td_path).title
        print(benchmod.format_table(stats, title))
    return 0


def cmd_sim_list(args) -> int:
    with load_sim_config(args.config) as network:
        peripherals = network.peripherals()
    print(f"simulated network: {len(peripherals)} device(s)")
    for peripheral in peripherals:
        flags = "connectable" if peripheral.connectable else "not connectable"
        print(f"  {peripheral.device_id}  advertising every "
              f"{peripheral.advertising_interval_ms:g} ms  {flags}")
        for svc, chars in peripheral.services.items():
            for char, obj in chars.items():
                methods = " ".join(sorted(m.value for m in obj.allowed))
                print(f"    {svc}/{char}  [{methods}]  value={obj.value.hex() or '-'}")
    return 0


#: Characters of a refused value argument that its usage error echoes.
_ECHOED_CHARS = 60


def _json_value(text: str):
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # not JSON, too many digits, too deep
        shown = (repr(text) if len(text) <= _ECHOED_CHARS else
                 f"{text[:_ECHOED_CHARS]!r}... ({len(text)} characters)")
        raise PlanError(f"value is not JSON: {shown} ({exc})") from exc


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (TdError, InvalidTd, PlanError, InvalidConfig) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except WotBleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INTERACTION_ERROR


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
