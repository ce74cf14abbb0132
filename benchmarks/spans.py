"""Span recorder for the traced benchmark run.

The recorder wraps public functions and methods of the ``dpctomo``
modules from outside, so the package itself carries no timers.  Each call
becomes a span holding its name, start, end and parent; spans stay in
memory until the run ends and are then folded into per-layer totals.
Tracing is installed only for the traced passes and removed afterwards.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

# (span name, module, attribute) of each traced public function
FUNCTIONS = (
    ("projector.assemble", "dpctomo.projector", "build_projector"),
    ("diffops.invert_forward", "dpctomo.diffops", "invert_forward"),
    ("gbit.solve", "dpctomo.gbit", "gbit_solve"),
    ("gbit.lsqr", "dpctomo.gbit", "lsqr_solve"),
    ("gbit.projected_solve", "dpctomo.gbit", "solve_lsqr_subproblem"),
    ("gbit.projected_solve", "dpctomo.gbit", "solve_tikhonov_subproblem"),
    ("fbp.reconstruct", "dpctomo.fbp", "fbp_reconstruct"),
    ("fbp.filter", "dpctomo.fbp", "filter_sinogram"),
    ("fileio.read", "dpctomo.fileio", "read_image"),
    ("fileio.read", "dpctomo.fileio", "read_sinogram"),
    ("fileio.read", "dpctomo.fileio", "read_manifest"),
    ("fileio.read", "dpctomo.fileio", "read_report_csv"),
    ("fileio.write", "dpctomo.fileio", "write_image"),
    ("fileio.write", "dpctomo.fileio", "write_image_pgm"),
    ("fileio.write", "dpctomo.fileio", "write_sinogram"),
    ("fileio.write", "dpctomo.fileio", "write_manifest"),
    ("fileio.write", "dpctomo.fileio", "write_report_csv"),
    ("simlab.phantom", "dpctomo.simlab", "make_phantom"),
    ("simlab.generate", "dpctomo.simlab", "generate_dpc_data"),
    ("simlab.noise", "dpctomo.simlab", "add_noise"),
    ("cli.main", "dpctomo.cli", "main"),
)

# (span name, module, class, method) of each traced method
METHODS = (
    ("projector.apply", "dpctomo.projector", "ParallelProjector", "apply"),
    ("projector.apply_t", "dpctomo.projector", "ParallelProjector", "apply_transpose"),
    ("diffops.apply", "dpctomo.diffops", "DiffOperator", "apply"),
    ("diffops.apply_t", "dpctomo.diffops", "DiffOperator", "apply_transpose"),
    ("linops.compose", "dpctomo.linops", "ComposedOperator", "apply"),
    ("linops.compose", "dpctomo.linops", "ComposedOperator", "apply_transpose"),
    ("gbit.step", "dpctomo.gbit", "BidiagDecomposition", "step"),
)

# spans that are one application of a solver's operator (or a factor of it)
OPERATOR_SPANS = frozenset(
    ("projector.apply", "projector.apply_t", "diffops.apply", "diffops.apply_t",
     "linops.compose")
)


@dataclass
class Span:
    name: str
    parent: int  # index into Tracer.spans, -1 for a root
    start: float
    end: float = 0.0
    nbytes: int = 0  # file size for file I/O spans


class Tracer:
    """In-memory span list with a stack of the spans now open."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else -1
        index = len(self.spans)
        record = Span(name, parent, time.perf_counter())
        self.spans.append(record)
        self._open.append(index)
        try:
            yield record
        finally:
            self._open.pop()
            record.end = time.perf_counter()

    def wrap(self, name: str, fn):
        sized = name.startswith("fileio.")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
                if sized:
                    record.nbytes = os.path.getsize(args[0])
                return result

        return traced

    @contextmanager
    def installed(self):
        """Route every call of the listed functions and methods through
        spans; the original bindings come back on exit."""
        undo = []
        try:
            for name, module_name, attr in FUNCTIONS:
                original = getattr(sys.modules[module_name], attr)
                traced = self.wrap(name, original)
                # rebind the function in every dpctomo module that imported it
                for mod_name, module in list(sys.modules.items()):
                    if mod_name.split(".")[0] != "dpctomo":
                        continue
                    for key, value in list(vars(module).items()):
                        if value is original:
                            undo.append((module, key, original))
                            setattr(module, key, traced)
            for name, module_name, cls_name, attr in METHODS:
                cls = getattr(sys.modules[module_name], cls_name)
                original = cls.__dict__[attr]
                undo.append((cls, attr, original))
                setattr(cls, attr, self.wrap(name, original))
            yield self
        finally:
            for owner, key, original in reversed(undo):
                setattr(owner, key, original)


@dataclass
class Totals:
    """Per-name sums over the spans below one root span."""

    inclusive: dict = field(default_factory=dict)
    self_time: dict = field(default_factory=dict)
    calls: dict = field(default_factory=dict)
    nbytes: dict = field(default_factory=dict)
    # classic gbit solves (not those inside lsqr_solve)
    gbit_iterations: int = 0
    gbit_matvecs: int = 0


def children_of(spans: list[Span]) -> list[list[int]]:
    kids: list[list[int]] = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent >= 0:
            kids[s.parent].append(i)
    return kids


def self_times(spans: list[Span], kids: list[list[int]]) -> list[float]:
    """Duration of each span minus the time its direct children cover.

    Calls are sequential, so children never overlap one another and lie
    inside their parent."""
    return [
        (s.end - s.start) - sum(spans[c].end - spans[c].start for c in kids[i])
        for i, s in enumerate(spans)
    ]


def descendants(kids: list[list[int]], root: int):
    stack = list(kids[root])
    while stack:
        i = stack.pop()
        yield i
        stack.extend(kids[i])


def totals_below(spans: list[Span], root: int) -> Totals:
    kids = children_of(spans)
    own = self_times(spans, kids)
    out = Totals()
    for i in descendants(kids, root):
        s = spans[i]
        out.inclusive[s.name] = out.inclusive.get(s.name, 0.0) + (s.end - s.start)
        out.self_time[s.name] = out.self_time.get(s.name, 0.0) + own[i]
        out.calls[s.name] = out.calls.get(s.name, 0) + 1
        out.nbytes[s.name] = out.nbytes.get(s.name, 0) + s.nbytes
        if s.name == "gbit.solve" and spans[s.parent].name != "gbit.lsqr":
            for j in descendants(kids, i):
                name = spans[j].name
                if name == "gbit.step":
                    out.gbit_iterations += 1
                elif name in OPERATOR_SPANS and spans[spans[j].parent].name not in OPERATOR_SPANS:
                    out.gbit_matvecs += 1
    return out


def roots(spans: list[Span], name: str) -> list[int]:
    return [i for i, s in enumerate(spans) if s.parent < 0 and s.name == name]
