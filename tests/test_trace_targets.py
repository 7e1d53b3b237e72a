"""The benchmark's tracer wraps leafconn functions by name; they must exist.

``perfbench/tracing.py`` replaces each attribute listed in ``WRAPPED`` with a
timing wrapper, looking it up in the module's or class's ``__dict__``.  A
renamed or deleted function makes ``Tracer.install`` raise ``KeyError``, so
this test reads the same constant and checks every name.
"""
import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_wrapped() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.WRAPPED


def test_every_traced_attribute_exists():
    wrapped = load_wrapped()
    missing = []
    for layer, attrs in wrapped.items():
        module = importlib.import_module(f"leafconn.{layer}")
        for attr in attrs:
            owner_name, _, name = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            if owner is None or name not in vars(owner):
                missing.append(f"{layer}.{attr}")
    assert sum(len(attrs) for attrs in wrapped.values()) > 0
    assert missing == []
