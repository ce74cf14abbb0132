"""Benchmark of the dpctomo pipeline: phantom -> simulate -> reconstruct.

Run from the root of a checkout:

    python3 benchmarks/run.py --workload krylov-256 --seed 0 --seconds 40 --trace 0

One run is one workload in a fresh process.  It repeats passes of the
workload back to back for ``--seconds`` (at least three passes), checks
every output, and prints as its last line a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics, each time from the fastest pass;
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics, medians over the traced passes.  A line starting with
``env`` records the machine and library versions.  See README.md in this
directory for the metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".bench_work"
MIN_PASSES = 3
MIN_TRACED = 2  # in a traced run, of each kind
# sizes of the warm-up pass and of the smoke test
TINY = {"size": 16, "angles": 12, "lsqr_iters": 40}

END_TO_END_UNITS = {
    "setup_s": "s",
    "recon_gbit_s": "s",
    "recon_lsqr_s": "s",
    "recon_fbp_s": "s",
    "total_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "rel_error_gbit": "ratio",
    "rel_error_lsqr": "ratio",
    "success_frac": "frac",
}

PER_LAYER_UNITS = {
    "projector.assemble_s": "s",
    "projector.assemble_rss_mb": "MB",
    "projector.working_set_mb": "MB",
    "projector.apply_calls": "count",
    "projector.apply_s": "s",
    "projector.apply_t_calls": "count",
    "projector.apply_t_s": "s",
    "diffops.apply_s": "s",
    "diffops.apply_t_s": "s",
    "diffops.invert_forward_s": "s",
    "linops.compose_self_s": "s",
    "gbit.step_s": "s",
    "gbit.step_self_s": "s",
    "gbit.orth_loss": "ratio",
    "gbit.projected_solve_calls": "count",
    "gbit.projected_solve_s": "s",
    "gbit.solve_self_s": "s",
    "gbit.iterations": "count",
    "gbit.matvecs": "count",
    "gbit.error_ratio": "ratio",
    "fbp.filter_s": "s",
    "fbp.reconstruct_s": "s",
    "fileio.read_s": "s",
    "fileio.write_s": "s",
    "fileio.bytes_read": "bytes",
    "fileio.bytes_written": "bytes",
    "simlab.phantom_s": "s",
    "simlab.generate_s": "s",
    "simlab.noise_s": "s",
    "cli.self_s": "s",
    "trace_overhead_frac": "frac",
    "env.nproc": "count",
    "env.blas_threads": "count",
    "env.l2_mb": "MB",
    "env.l3_mb": "MB",
    "env.src_lines": "count",
}


def import_package():
    """Import dpctomo from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "dpctomo" / "__init__.py").is_file():
        raise SystemExit(f"error: no dpctomo sources under {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import dpctomo

    if Path(dpctomo.__file__).resolve().parent != (src / "dpctomo").resolve():
        raise SystemExit(f"error: imported dpctomo from {dpctomo.__file__}, not {src}")


def blas_threads() -> int:
    """Thread count of the OpenBLAS that numpy loaded (0 if not found)."""
    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return 0


def cache_bytes(level: int) -> int:
    try:
        done = subprocess.run(["getconf", f"LEVEL{level}_CACHE_SIZE"], capture_output=True,
                              text=True, timeout=10, check=False)
        return int(done.stdout.strip() or 0)
    except (OSError, ValueError, subprocess.SubprocessError):
        return 0


def environment() -> dict:
    import numpy as np
    import scipy

    src_lines = sum(
        len(p.read_bytes().splitlines()) for p in sorted((ROOT / "src").rglob("*.py"))
    )
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "l2_bytes": cache_bytes(2),
        "l3_bytes": cache_bytes(3),
        "src_lines": src_lines,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def held_bytes(obj) -> int:
    """Bytes of the arrays an object holds, directly or in sparse matrices."""
    import numpy as np
    import scipy.sparse as sp

    total = 0
    for value in vars(obj).values():
        if isinstance(value, np.ndarray):
            total += value.nbytes
        elif sp.issparse(value):
            total += held_bytes(value)
    return total


def assembly_probe(geometry) -> tuple[float, float]:
    """Peak RSS growth over the first assembly in the process, and the
    computed working set: the bytes the projector keeps."""
    from dpctomo import projector

    before = peak_rss_mb()
    R = projector.build_projector(geometry)
    return peak_rss_mb() - before, held_bytes(R) / 2**20


def orth_loss(A, b, steps: int) -> float:
    """Largest entry of |V^T V - I| and |U^T U - I| after ``steps`` steps."""
    import numpy as np
    from dpctomo import gbit

    dec = gbit.BidiagDecomposition(A, b)
    while dec.k < steps and dec.step():
        pass
    return max(
        float(np.abs(Q.T @ Q - np.eye(Q.shape[1])).max()) for Q in (dec.V, dec.U)
    )


def timed_pass(workload, tracer=None) -> dict:
    """One pass with its phase times, then its checks (untimed)."""
    from contextlib import nullcontext
    from workloads import Clock

    clock = Clock(tracer)
    cpu0, t0 = time.process_time(), time.perf_counter()
    with tracer.span("pass") if tracer else nullcontext():
        outputs = workload.run_pass(clock)
    record = {"total_s": time.perf_counter() - t0, "cpu_s": time.process_time() - cpu0}
    record.update({f"{phase}_s": t for phase, t in clock.times.items()})
    record.update(workload.check(outputs))
    return record


def median(records: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in records)


def layer_metrics(totals) -> dict:
    inc, own, calls, nbytes = totals.inclusive, totals.self_time, totals.calls, totals.nbytes
    return {
        "projector.assemble_s": inc.get("projector.assemble", 0.0),
        "projector.apply_calls": calls.get("projector.apply", 0),
        "projector.apply_s": inc.get("projector.apply", 0.0),
        "projector.apply_t_calls": calls.get("projector.apply_t", 0),
        "projector.apply_t_s": inc.get("projector.apply_t", 0.0),
        "diffops.apply_s": inc.get("diffops.apply", 0.0),
        "diffops.apply_t_s": inc.get("diffops.apply_t", 0.0),
        "diffops.invert_forward_s": inc.get("diffops.invert_forward", 0.0),
        "linops.compose_self_s": own.get("linops.compose", 0.0),
        "gbit.step_s": inc.get("gbit.step", 0.0),
        "gbit.step_self_s": own.get("gbit.step", 0.0),
        "gbit.projected_solve_calls": calls.get("gbit.projected_solve", 0),
        "gbit.projected_solve_s": inc.get("gbit.projected_solve", 0.0),
        "gbit.solve_self_s": own.get("gbit.solve", 0.0) + own.get("gbit.lsqr", 0.0),
        "gbit.iterations": totals.gbit_iterations,
        "gbit.matvecs": totals.gbit_matvecs,
        "fbp.filter_s": inc.get("fbp.filter", 0.0),
        "fbp.reconstruct_s": inc.get("fbp.reconstruct", 0.0),
        "fileio.read_s": inc.get("fileio.read", 0.0),
        "fileio.write_s": inc.get("fileio.write", 0.0),
        "fileio.bytes_read": nbytes.get("fileio.read", 0),
        "fileio.bytes_written": nbytes.get("fileio.write", 0),
        "simlab.phantom_s": inc.get("simlab.phantom", 0.0),
        "simlab.generate_s": inc.get("simlab.generate", 0.0),
        "simlab.noise_s": inc.get("simlab.noise", 0.0),
        "cli.self_s": own.get("cli.main", 0.0),
    }


def run(workload, seconds: float, trace: bool, env: dict) -> dict:
    """Measure one workload; returns every metric of the requested kind."""
    from spans import Tracer, roots, totals_below

    if trace:
        rss_growth, working_set = assembly_probe(workload.geometry())
    plain, traced = [], []
    tracer = Tracer() if trace else None
    least = 2 * MIN_TRACED if trace else MIN_PASSES
    start, walls = time.perf_counter(), []
    # no pass starts that would likely end after the measured period
    while len(walls) < least or time.perf_counter() - start + statistics.median(walls) <= seconds:
        t0 = time.perf_counter()
        try:
            if trace and len(traced) < len(plain):
                with tracer.installed():
                    record, kind = timed_pass(workload, tracer), traced
            else:
                record, kind = timed_pass(workload), plain
        except Exception:  # the program raised: a failed operation, and the end of the run
            workload.ledger.record("pass", [traceback.format_exc()])
            break
        kind.append(record)
        walls.append(time.perf_counter() - t0)
    if len(walls) < least:
        raise SystemExit("error: no complete measurement\n" + "\n".join(workload.ledger.failures))
    workload.cross_check()

    if not trace:
        times = [key for key, unit in END_TO_END_UNITS.items() if unit == "s"]
        print(f"passes {len(plain)}, medians "
              + json.dumps({key: median(plain, key) for key in times}), flush=True)
        # The shared host's speed drifts by a fifth and more over tens of
        # seconds, and a run's median pass drifts with it; the fastest
        # pass is the steadier estimate of the program's own cost.
        metrics = {key: min(r[key] for r in plain) for key in times}
        metrics["rel_error_gbit"] = median(plain, "rel_error_gbit")
        metrics["rel_error_lsqr"] = median(plain, "rel_error_lsqr")
        metrics["peak_rss_mb"] = peak_rss_mb()
        ledger = workload.ledger
        metrics["success_frac"] = 1.0 - len(ledger.failures) / ledger.attempted
        return metrics

    per_pass = [layer_metrics(totals_below(tracer.spans, r)) for r in roots(tracer.spans, "pass")]
    metrics = {key: statistics.median(p[key] for p in per_pass) for key in per_pass[0]}
    A, b, steps = workload.problem()
    metrics.update({
        "projector.assemble_rss_mb": rss_growth,
        "projector.working_set_mb": working_set,
        "gbit.orth_loss": orth_loss(A, b, steps),
        "gbit.error_ratio": median(traced, "error_ratio"),
        "trace_overhead_frac": median(traced, "total_s") / median(plain, "total_s") - 1.0,
        "env.nproc": env["nproc"],
        "env.blas_threads": env["blas_threads"],
        "env.l2_mb": env["l2_bytes"] / 2**20,
        "env.l3_mb": env["l3_bytes"] / 2**20,
        "env.src_lines": env["src_lines"],
    })
    WORK.mkdir(exist_ok=True)
    spans = [[s.name, s.parent, s.start, s.end, s.nbytes] for s in tracer.spans]
    (WORK / f"{workload.name}.spans.json").write_text(json.dumps(spans))
    return metrics


def make_workload(name: str, seed: int, sizes: dict | None = None):
    from workloads import WORKLOADS, Cli

    reference = json.loads((HERE / "reference.json").read_text())
    cls = WORKLOADS[name]
    kwargs = {"workdir": WORK / name} if cls is Cli else {}
    # smaller instances have no recorded reference
    return cls(seed, None if sizes else reference[name], sizes, **kwargs)


def warm_up(name: str):
    """A tiny pass of the same workload, so imports and first-call set-up
    happen before timing."""
    from workloads import Clock

    tiny = make_workload(name, 0, TINY)
    tiny.check(tiny.run_pass(Clock()))


def measure(name: str, seed: int, seconds: float, trace: bool, sizes: dict | None = None):
    """Runs one workload; returns the result object and the failures."""
    env = environment()
    print("env " + json.dumps(env, sort_keys=True), flush=True)
    warm_up(name)
    workload = make_workload(name, seed, sizes)
    metrics = run(workload, seconds, trace, env)
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    ledger = workload.ledger
    result = {
        "correct": not ledger.failures,
        "attempted": ledger.attempted,
        "failed": len(ledger.failures),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    return result, ledger.failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("krylov-256", "study-64", "cli-128"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    import_package()
    result, failures = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
