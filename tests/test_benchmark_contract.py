"""The package names that the benchmark's span recorder wraps.

``benchmarks/spans.py`` rebinds each function in ``FUNCTIONS`` and each
method in ``METHODS`` for a traced run, so renaming or deleting one of
them breaks ``benchmarks/run.py --trace 1``.  These tests catch that here,
and check that the wrapped projected solves are still called once per
iteration each, so ``gbit.projected_solve_*`` keep timing that layer.
"""

import importlib
import importlib.util
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from dpctomo import gbit
from oracles import MatrixOperator

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


@pytest.fixture
def solve_calls(monkeypatch):
    """Counts calls of the two projected solves, rebinding each in every
    dpctomo module that imported it, as the span recorder does."""
    calls = Counter()
    for _, module, attr in spans.FUNCTIONS:
        if not attr.endswith("_subproblem"):
            continue
        original = getattr(importlib.import_module(module), attr)

        def counted(*args, _fn=original, _name=attr, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        for name, mod in list(sys.modules.items()):
            if name.split(".")[0] == "dpctomo":
                for key, value in list(vars(mod).items()):
                    if value is original:
                        monkeypatch.setattr(mod, key, counted)
    return calls


def test_each_projected_solve_is_called_once_per_iteration(solve_calls):
    rng = np.random.default_rng(4)
    a = MatrixOperator(rng.standard_normal((30, 20)))
    b = rng.standard_normal(30)
    n = 12
    config = gbit.GBiTConfig(update_scheme="fixed", lambda0=0.3, max_iter=n)
    _, report = gbit.gbit_solve(a, b, config)
    assert report.iterations == n
    assert solve_calls == {"solve_lsqr_subproblem": n, "solve_tikhonov_subproblem": n}
    solve_calls.clear()
    _, report = gbit.lsqr_solve(a, b, iters=n)
    assert report.iterations == n
    assert solve_calls == {"solve_lsqr_subproblem": n}
