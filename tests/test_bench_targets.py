import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.TARGETS


@pytest.mark.parametrize("module, name, span", _targets())
def test_every_traced_function_exists(module, name, span):
    # The benchmark tracer wraps these by name; a renamed function would
    # silently leave its span's metrics unmeasured.
    assert callable(getattr(importlib.import_module(f"secbit.{module}"), name, None)), span
