"""The package names that the benchmark's span recorder wraps.

``benchmarks/spans.py`` rebinds each function in ``FUNCTIONS`` and each
method in ``METHODS`` for a traced run, so renaming or deleting one of
them breaks ``benchmarks/run.py --trace 1``.  These tests catch that here.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("benchmark_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


spans = load_spans()


@pytest.mark.parametrize("span,module,attr", spans.FUNCTIONS)
def test_traced_function_resolves(span, module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


@pytest.mark.parametrize("span,module,cls,attr", spans.METHODS)
def test_traced_method_is_defined_on_its_class(span, module, cls, attr):
    assert attr in getattr(importlib.import_module(module), cls).__dict__
