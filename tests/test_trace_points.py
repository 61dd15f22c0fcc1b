"""The benchmark's trace points must name functions that exist.

``perfbench/tracing.py`` times the package by replacing module attributes
(``irsrelay.harness.sample_channels``, ``irsrelay.cli.sweep``, ...) with
wrappers.  A refactor that renames or moves one of them would make a traced
benchmark run fail, so every point is resolved here.  The tracing module is
only read, never changed.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _trace_points():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module.TRACE_POINTS


@pytest.mark.parametrize(
    "module, attribute", [point[:2] for point in _trace_points()]
)
def test_trace_point_resolves(module, attribute):
    assert callable(getattr(importlib.import_module(module), attribute))
