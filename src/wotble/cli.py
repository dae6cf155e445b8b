"""Command-line front end.

Subcommands: read, write, invoke, subscribe, validate, bench, sim serve.
Exit codes: 0 on success, 1 for interaction errors, 2 for usage or
validation errors.
"""

from __future__ import annotations

import argparse
import json
import queue
import sys
import time
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
from .transport import load_sim_config, open_transport

USAGE_ERROR = 2
INTERACTION_ERROR = 1


def _add_global_flags(parser: argparse.ArgumentParser, suppress: bool) -> None:
    # Shared flags live on the root parser and on every subcommand; the
    # subcommand copies default to SUPPRESS so they never shadow root values.
    def d(value):
        return argparse.SUPPRESS if suppress else value

    parser.add_argument("--transport", default=d(None),
                        help="'sim:<config.json>'")
    parser.add_argument("--seed", type=int, default=d(None),
                        help="RNG seed for the simulated network")
    parser.add_argument("--timeout-ms", type=float, default=d(10_000.0))
    parser.add_argument("--output", choices=("table", "csv", "json"),
                        default=d("table"))
    parser.add_argument("--policy", default=d("keep_connected"),
                        choices=[p.value for p in ConnectionPolicy])


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    _add_global_flags(common, suppress=True)

    parser = argparse.ArgumentParser(
        prog="wotble",
        description="Interact with Bluetooth LE Things described by a TD, "
                    "over a simulated GATT transport.",
    )
    _add_global_flags(parser, suppress=False)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("read", parents=[common], help="read and decode a property")
    p.add_argument("td")
    p.add_argument("property")

    p = sub.add_parser("write", parents=[common], help="encode and write a property")
    p.add_argument("td")
    p.add_argument("property")
    p.add_argument("value", help="JSON value, e.g. 5 or '{\"on\": 1}'")

    p = sub.add_parser("invoke", parents=[common], help="invoke an action")
    p.add_argument("td")
    p.add_argument("action")
    p.add_argument("value", help="JSON value for the action input")

    p = sub.add_parser("subscribe", parents=[common],
                       help="print decoded event notifications")
    p.add_argument("td")
    p.add_argument("event")
    p.add_argument("--count", type=int, default=1,
                   help="number of notifications to wait for")

    p = sub.add_parser("validate", parents=[common], help="report TD diagnostics")
    p.add_argument("td")

    p = sub.add_parser("bench", parents=[common], help="run a latency benchmark plan")
    p.add_argument("plan")
    p.add_argument("--virtual-clock", action="store_true",
                   help="run on simulated time instead of the real clock")

    p = sub.add_parser("sim", help="simulated network tools")
    sim_sub = p.add_subparsers(dest="sim_command", required=True)
    serve = sim_sub.add_parser("serve", parents=[common],
                               help="load a network and keep it running")
    serve.add_argument("config")
    serve.add_argument("--duration-s", type=float, default=None,
                       help="stop after this many seconds (default: until Ctrl-C)")

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


def cmd_sim_serve(args) -> int:
    network = load_sim_config(args.config, seed=args.seed)
    peripherals = network.peripherals()
    print(f"simulated network up: {len(peripherals)} device(s)")
    for peripheral in peripherals:
        flags = "connectable" if peripheral.connectable else "not connectable"
        print(f"  {peripheral.device_id}  advertising every "
              f"{peripheral.advertising_interval_ms:g} ms  {flags}")
        for svc, chars in peripheral.services.items():
            for char, obj in chars.items():
                methods = " ".join(sorted(m.value for m in obj.allowed))
                print(f"    {svc}/{char}  [{methods}]  value={obj.value.hex() or '-'}")
    deadline = None if args.duration_s is None else time.monotonic() + args.duration_s
    try:
        while deadline is None or time.monotonic() < deadline:
            time.sleep(0.1)
    except KeyboardInterrupt:
        pass
    finally:
        network.close()
    return 0


def _json_value(text: str):
    try:
        return json.loads(text)
    except ValueError as exc:  # not JSON, or an integer with too many digits
        raise PlanError(f"value is not JSON: {text!r} ({exc})") from exc


_COMMANDS = {
    "read": cmd_read,
    "write": cmd_write,
    "invoke": cmd_invoke,
    "subscribe": cmd_subscribe,
    "validate": cmd_validate,
    "bench": cmd_bench,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "sim":
            return cmd_sim_serve(args)
        return _COMMANDS[args.command](args)
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
