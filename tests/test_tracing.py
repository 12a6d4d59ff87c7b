"""The benchmark's tracer still finds what it wraps.

``perfbench/tracing.py`` rebinds each function of ``TRACED`` by name and
reads some of their arguments by name; a renamed or moved function would
otherwise surface only as an AttributeError inside ``perfbench/run.py``.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

#: Arguments the tracer's work counters bind by name.
COUNTED_ARGUMENTS = {
    ("kernels", "transform_profiles"): ("profiles", "rho", "grid"),
    ("io", "write_json"): ("path",),
    ("io", "write_csv"): ("path",),
}


@pytest.fixture(scope="module")
def traced():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.TRACED


def test_every_traced_function_resolves(traced):
    for module, name in traced:
        function = getattr(importlib.import_module(f"cascadelab.{module}"), name, None)
        assert callable(function), f"cascadelab.{module}.{name}"


def test_counted_arguments_are_in_the_signatures(traced):
    for (module, name), arguments in COUNTED_ARGUMENTS.items():
        assert (module, name) in traced
        function = getattr(importlib.import_module(f"cascadelab.{module}"), name)
        parameters = inspect.signature(function).parameters
        for argument in arguments:
            assert argument in parameters, f"cascadelab.{module}.{name}({argument})"
