import importlib
import importlib.util
from pathlib import Path

import pytest

import wotble

#: Public names deleted with the features they served, by module.
REMOVED = {
    "wotble": ("Session", "expose", "register_host_backend", "create_host_transport",
               "register_codec"),
    "wotble.transport": ("Session", "register_host_backend", "create_host_transport",
                         "_host_backend_factory", "WriteRecord"),
    "wotble.codec": ("register_codec", "BinaryDataStreamCodec", "LiteralSegment",
                     "VariableSegment"),
    "wotble.consumer": ("expose",),
    "wotble.errors": ("NotSupported",),
}


#: Attributes deleted from a public class: (class, name).
REMOVED_ATTRIBUTES = [
    (wotble.SimTransport, "start_discovery"),
    (wotble.SimTransport, "stop_discovery"),
    (wotble.ResolvedRequest, "disables_notifications"),
    (wotble.ConsumedThing, "read_raw"),
    (wotble.ConsumedThing, "write_raw"),
    (wotble.BdoSpec, "layout"),
    (wotble.ConnectionPolicy, "DISCONNECT_AFTER"),
]


@pytest.mark.parametrize("name", wotble.__all__)
def test_every_exported_name_resolves(name):
    assert getattr(wotble, name) is not None


#: Exported errors, each with the base classes a caller may catch it by.
EXPORTED_ERRORS = {
    "InvalidPolicy": (wotble.errors.ConsumerError, ValueError),
}


@pytest.mark.parametrize("name", EXPORTED_ERRORS)
def test_exported_errors_keep_their_bases(name):
    assert name in wotble.__all__
    error = getattr(wotble, name)
    assert error is getattr(wotble.errors, name)
    assert issubclass(error, EXPORTED_ERRORS[name])


@pytest.mark.parametrize("module, name",
                         [(m, n) for m, names in REMOVED.items() for n in names])
def test_removed_names_are_gone(module, name):
    assert name not in getattr(importlib.import_module(module), "__all__", ())
    assert not hasattr(importlib.import_module(module), name)


@pytest.mark.parametrize("cls, name", REMOVED_ATTRIBUTES,
                         ids=[f"{cls.__name__}.{name}" for cls, name in REMOVED_ATTRIBUTES])
def test_removed_class_attributes_are_gone(cls, name):
    assert not hasattr(cls, name)


#: The public methods and properties of ``ConsumedThing``: an addition or a
#: removal shows up here.
CONSUMED_THING_API = {
    "connect", "connected", "device_id", "disconnect", "invoke_action",
    "read_all_properties", "read_multiple_properties", "read_property", "subscribe_event",
    "unsubscribe_event", "write_all_properties", "write_multiple_properties",
    "write_property",
}


def test_consumed_thing_keeps_its_public_api():
    assert {name for name in dir(wotble.ConsumedThing)
            if not name.startswith("_")} == CONSUMED_THING_API


def test_a_sim_transport_keeps_no_call_log():
    with wotble.SimNetwork() as net:
        transport = wotble.SimTransport(net)
        assert not hasattr(transport, "trace")
        assert set(vars(transport)) == {"network", "timeout_s"}


def test_a_sim_characteristic_keeps_no_write_log():
    assert not hasattr(wotble.SimCharacteristic(b"\x00"), "write_log")


def _perfbench_layers():
    """``perfbench/layers.py``, loaded by its path: ``perfbench`` is no package."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"
    spec = importlib.util.spec_from_file_location("perfbench_layers", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


#: (layer, module, attribute) of each entry point the benchmark's tracer wraps.
TRACED = _perfbench_layers().WRAPPED


def test_the_tracer_wraps_every_layer_entry_point():
    assert len(TRACED) == 24


@pytest.mark.parametrize("layer, module, attribute", TRACED,
                         ids=[f"{module}.{attribute}" for _, module, attribute in TRACED])
def test_each_traced_entry_point_resolves_to_a_callable(layer, module, attribute):
    """The tracer skips a name it cannot find, and its metrics then read zero."""
    target = importlib.import_module(module)
    for name in attribute.split("."):
        target = getattr(target, name)
    assert callable(target)
