"""wotble: WoT protocol binding toolkit for Bluetooth LE GATT.

Parses Thing Descriptions annotated with the Simple Bluetooth and Binary
Data vocabularies, maps abstract WoT operations onto GATT methods, encodes
and decodes application/x.binary-data-stream payloads, and executes
interactions over a pluggable transport. Ships with a deterministic
simulated peripheral network and a latency benchmark harness.
"""

from . import errors
from .bench import BenchPlan, BenchStats, load_bench_plan, run_bench, time_operation
from .binding import (
    GattMethod,
    ResolvedRequest,
    WotOperation,
    map_operation,
    resolve_form,
)
from .clock import RealClock, VirtualClock
from .codec import (
    BINARY_DATA_STREAM,
    BdoSpec,
    Endianess,
    VariableSpec,
    VariableType,
    compile_pattern,
    decode,
    encode,
    get_codec,
)
from .consumer import ConnectionPolicy, ConsumedThing, Subscription, consume
from .errors import InvalidPolicy
from .td import (
    Affordance,
    BleMetadata,
    Diagnostic,
    DiagnosticCode,
    Form,
    GapRole,
    Severity,
    ThingDescription,
    parse_td,
    parse_td_file,
    validate_td,
)
from .transport import (
    SimCharacteristic,
    SimNetwork,
    SimPeripheral,
    SimTransport,
    TransportContract,
    load_sim_config,
)
from .uris import GattUri, expand_uuid, format_gatt_uri, parse_gatt_uri

__version__ = "0.1.0"

__all__ = [
    "Affordance",
    "BdoSpec",
    "BenchPlan",
    "BenchStats",
    "BINARY_DATA_STREAM",
    "BleMetadata",
    "ConnectionPolicy",
    "ConsumedThing",
    "Diagnostic",
    "DiagnosticCode",
    "Endianess",
    "Form",
    "GapRole",
    "GattMethod",
    "GattUri",
    "InvalidPolicy",
    "RealClock",
    "ResolvedRequest",
    "Severity",
    "SimCharacteristic",
    "SimNetwork",
    "SimPeripheral",
    "SimTransport",
    "Subscription",
    "ThingDescription",
    "TransportContract",
    "VariableSpec",
    "VariableType",
    "VirtualClock",
    "WotOperation",
    "compile_pattern",
    "consume",
    "decode",
    "encode",
    "errors",
    "expand_uuid",
    "format_gatt_uri",
    "get_codec",
    "load_bench_plan",
    "load_sim_config",
    "map_operation",
    "parse_gatt_uri",
    "parse_td",
    "parse_td_file",
    "resolve_form",
    "run_bench",
    "time_operation",
    "validate_td",
]
