"""Smoke test of the benchmark itself, at tiny sizes (16x16, 12 angles).

Run from the root of a checkout:

    python3 benchmarks/smoke.py

For every workload it makes an untraced and a traced run and checks that
every metric named in BENCHMARK.json is emitted with its unit, that the
outputs pass their checks, that spans nest, and that self times are
non-negative.  It also checks that the benchmark refuses to run, without
printing a result, in a directory holding only BENCHMARK.json and this
directory.  Exits non-zero on the first failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run


def check_result(result: dict, declared: list[dict]):
    emitted = result["metrics"]
    names = [m["name"] for m in declared]
    assert sorted(emitted) == sorted(names), set(emitted) ^ set(names)
    for metric in declared:
        value = emitted[metric["name"]]
        assert value["unit"] == metric["unit"], (metric, value)
        assert isinstance(value["value"], (int, float)), value
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result


def check_spans(name: str):
    """Spans nest inside their parents and no self time is negative."""
    from spans import Span, children_of, self_times

    spans = [Span(*row) for row in json.loads((run.WORK / f"{name}.spans.json").read_text())]
    assert any(s.name == "pass" for s in spans), "the traced run recorded no passes"
    for span in spans:
        assert span.start <= span.end, span
        if span.parent >= 0:
            parent = spans[span.parent]
            assert parent.start <= span.start and span.end <= parent.end, (span, parent)
    for span, own in zip(spans, self_times(spans, children_of(spans))):
        assert own >= 0.0, (span, own)


def check_bare_directory():
    """The contract: in a directory with only BENCHMARK.json and the
    benchmark's files, exit non-zero without printing a result."""
    bare = run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(run.HERE, bare / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "study-64", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120, check=False,
    )
    shutil.rmtree(bare)
    assert done.returncode != 0, done
    assert '"metrics"' not in done.stdout, done.stdout


def main() -> int:
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    run.import_package()
    for workload in declared["workloads"]:
        name = workload["name"]
        for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
            result, failures = run.measure(name, 0, 0.01, trace, run.TINY)
            assert not failures, failures
            check_result(result, declared[kind])
            if trace:
                check_spans(name)
            print(f"ok {name} trace={int(trace)}", flush=True)
    check_bare_directory()
    print("ok bare directory")
    return 0


if __name__ == "__main__":
    sys.exit(main())
