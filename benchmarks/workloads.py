"""The benchmark's workloads and the checks on their outputs.

Each workload runs one closed-loop client: a pass goes phantom ->
simulate -> reconstruct and the next pass starts when it ends.  The seed
is a benchmark argument; the package only sees the inputs made from it.

- ``krylov-256``: 256x256 phantom, 180 angles.  The two CSR copies of the
  projector (169 MB each) exceed the last-level cache, so SpMV is memory
  bound, and 100 lsqr steps make the reorthogonalization run deep.
- ``study-64``: the ``full_ct`` recipe at 64x64, 90 angles, driven step by
  step through the public API.  The operator fits in cache, so SpMV,
  reorthogonalization and the Python projected solves share the time.
- ``cli-128``: ``dpctomo.cli.main`` at 128x128, 180 angles.  Every command
  assembles its own projector and reads and writes text files; the
  Krylov work is shallow.

The seed selects one of ``SEEDS`` noise draws, whose errors are recorded
in reference.json.  Every solver call or command is one attempted
operation.  It fails when its output is not finite, breaks an exact
identity of the method, differs from the recorded reference for the draw,
or differs byte for byte from the same output of the first pass.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from dpctomo import cli, diffops, fbp, fileio, gbit, linops, projector, simlab

OMEGA = 0.2
NOISE = 0.10
ETA = 1.01
GBIT_MAX_ITER = 200
# criterion 3 of the acceptance tests: true and projected residuals agree
# to 1e-8 of ||b||; the same tolerance bounds any drift from the reference
TOL = 1e-8
# noise draws with recorded reference errors; seed s selects draw s % SEEDS
SEEDS = 32


class Clock:
    """Sums the wall time of each named phase of a pass; with a tracer it
    also records each phase as a span."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.times: dict[str, float] = defaultdict(float)

    @contextlib.contextmanager
    def phase(self, name: str):
        span = self.tracer.span(name) if self.tracer else contextlib.nullcontext()
        with span:
            t0 = time.perf_counter()
            try:
                yield
            finally:
                self.times[name] += time.perf_counter() - t0


class Ledger:
    """Attempted operations and the problems found with each."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, what: str, problems: list[str]):
        self.attempted += 1
        if problems:
            self.failures.append(f"{what}: {'; '.join(problems)}")


def digest(data) -> str:
    raw = data.tobytes() if isinstance(data, np.ndarray) else data
    return hashlib.sha256(raw).hexdigest()


def rel_error(x, truth) -> float:
    return float(np.linalg.norm(x - truth) / np.linalg.norm(truth))


class Workload:
    """Shared bookkeeping: the ledger, first-pass digests and the
    reference errors recorded for this workload, by draw."""

    name = ""
    size = angles = lsqr_iters = 0  # set by each workload

    def __init__(self, seed: int, reference: dict | None = None, sizes: dict | None = None):
        """``sizes`` overrides size, angles and lsqr_iters (smoke test, warm-up)."""
        self.seed = int(seed) % SEEDS
        vars(self).update(sizes or {})
        self.reference = reference  # {draw: {key: error}}; None skips the comparison
        self.ledger = Ledger()
        self.first_digests: dict[str, str] = {}
        self.seen: dict[str, float] = {}  # last value of each reference key

    def geometry(self):
        return projector.standard_geometry(self.size, self.angles)

    def same_as_first_pass(self, key: str, data) -> list[str]:
        value = digest(data)
        first = self.first_digests.setdefault(key, value)
        return [] if value == first else [f"{key} differs from the first pass"]

    def against_reference(self, key: str, value: float) -> list[str]:
        self.seen[key] = value
        if not np.isfinite(value):
            return [f"{key} is {value}"]
        if self.reference is None:
            return []
        ref = self.reference.get(str(self.seed), {}).get(key)
        if ref is None:
            return [f"no recorded reference for {key} at draw {self.seed}"]
        if abs(value - ref) > TOL * abs(ref):
            return [f"{key} {value!r} differs from the reference {ref!r}"]
        return []

    def cross_check(self):
        """Checks made once per run, after the timed passes."""

    def check_solver(self, what, A, b, x, report, truth, epsilon=None) -> float:
        """Checks one lsqr (``epsilon`` None) or gbit solve; returns its error."""
        problems = []
        if not np.all(np.isfinite(x)):
            problems.append("non-finite solution")
        true_residual = float(np.linalg.norm(b - A.apply(x)))
        projected = float(report.records[-1].phi_lambda) if report.records else np.nan
        gap = abs(true_residual - projected) / float(np.linalg.norm(b))
        if not gap <= TOL:
            problems.append(f"|true - projected residual| / ||b|| = {gap:.2e}")
        if epsilon is None:
            if report.termination != "max_iter":
                problems.append(f"lsqr ended with {report.termination}")
        elif report.termination != "discrepancy_met" or not projected < ETA * epsilon:
            problems.append(f"gbit ended with {report.termination}")
        error = rel_error(x, truth)
        problems += self.against_reference(f"rel_error_{what}", error)
        problems += self.same_as_first_pass(what, x)
        self.ledger.record(what, problems)
        return error

    def check_fbp(self, what, values, truth):
        problems = [] if np.all(np.isfinite(values)) else ["non-finite image"]
        problems += self.against_reference(f"rel_error_{what}", rel_error(values, truth))
        problems += self.same_as_first_pass(what, values)
        self.ledger.record(what, problems)


class Krylov(Workload):
    name = "krylov-256"
    size, angles, lsqr_iters = 256, 180, 100

    def make_data(self):
        """Phantom, projector, forward-model operator, noisy data and the
        realized noise norm."""
        phantom = simlab.make_phantom(simlab.PhantomSpec(size=self.size))
        geom = self.geometry()
        R = projector.build_projector(geom)
        b_clean, _ = simlab.generate_dpc_data(
            phantom, geom, simlab.ModelErrorSpec(OMEGA), projector=R
        )
        b = simlab.add_noise(b_clean.values, simlab.NoiseSpec(NOISE, seed=self.seed))
        A = linops.compose(diffops.make_diff("forward", geom.k, geom.l), R)
        return phantom.values, geom, R, A, b, float(np.linalg.norm(b - b_clean.values))

    def problem(self):
        _, _, _, A, b, _ = self.make_data()
        return A, b, self.lsqr_iters

    def run_pass(self, clock: Clock):
        with clock.phase("setup"):
            truth, geom, R, A, b, eps = self.make_data()
        # FBP runs before the solvers, so that it does not share the cores
        # with the BLAS threads that spin on after a solver's last call
        with clock.phase("recon_fbp"):
            sino = projector.Sinogram(k=geom.k, l=geom.l, values=b, h=geom.h)
            image = fbp.fbp_reconstruct(sino, geom, "dpc", projector=R)
        with clock.phase("recon_lsqr"):
            lsqr = gbit.lsqr_solve(A, b, iters=self.lsqr_iters, x_true=truth)
        config = gbit.GBiTConfig(eta=ETA, epsilon=eps, max_iter=GBIT_MAX_ITER, x_true=truth)
        with clock.phase("recon_gbit"):
            solved = gbit.gbit_solve(A, b, config)
        return truth, A, b, eps, lsqr, solved, image

    def check(self, outputs) -> dict:
        truth, A, b, eps, (x_l, rep_l), (x_g, rep_g), image = outputs
        e_lsqr = self.check_solver("lsqr", A, b, x_l, rep_l, truth)
        e_gbit = self.check_solver("gbit", A, b, x_g, rep_g, truth, eps)
        self.check_fbp("fbp", image.values, truth)
        return {
            "rel_error_gbit": e_gbit,
            "rel_error_lsqr": e_lsqr,
            "error_ratio": e_gbit / float(np.nanmin(rep_l.rel_errors)),
        }


class Study(Workload):
    name = "study-64"
    size, angles, lsqr_iters = 64, 90, 200
    first_errors: dict[str, float] | None = None  # for the cross-check

    def make_data(self):
        """The three arms of the full_ct recipe: (name, operator, data,
        realized noise norm)."""
        phantom = simlab.make_phantom(simlab.PhantomSpec(size=self.size))
        geom = self.geometry()
        R = projector.build_projector(geom)
        f_clean, c_clean = simlab.generate_dpc_data(
            phantom, geom, simlab.ModelErrorSpec(OMEGA), projector=R
        )
        spec = simlab.NoiseSpec(NOISE, seed=simlab.derived_seed(self.seed, "full_ct"))
        b_f = simlab.add_noise(f_clean.values, spec)
        b_c = simlab.add_noise(c_clean.values, spec)
        # the two-step arm undoes the forward difference, then inverts R
        pr = simlab.phase_retrieval_rhs(b_f, geom.k, geom.l)
        pr_clean = simlab.phase_retrieval_rhs(f_clean.values, geom.k, geom.l)
        arms = []
        for name, A, b, clean in (
            ("forward", linops.compose(diffops.make_diff("forward", geom.k, geom.l), R),
             b_f, f_clean.values),
            ("central", linops.compose(diffops.make_diff("central", geom.k, geom.l), R),
             b_c, c_clean.values),
            ("phase_retrieval", R, pr, pr_clean),
        ):
            arms.append((name, A, b, float(np.linalg.norm(b - clean))))
        return phantom.values, geom, R, arms

    def problem(self):
        _, _, _, arms = self.make_data()
        _, A, b, _ = arms[0]
        return A, b, self.lsqr_iters

    def run_pass(self, clock: Clock):
        with clock.phase("setup"):
            truth, geom, R, arms = self.make_data()
        # FBP of each arm's data, before the solvers as in krylov-256; the
        # phase-retrieval data are plain projections, so they take the ramp filter
        images = []
        with clock.phase("recon_fbp"):
            for name, _, b, _ in arms:
                sino = projector.Sinogram(k=geom.k, l=geom.l, values=b, h=geom.h)
                kind = "ramp" if name == "phase_retrieval" else "dpc"
                images.append((name, fbp.fbp_reconstruct(sino, geom, kind, projector=R)))
        solved = []
        for name, A, b, eps in arms:
            with clock.phase("recon_lsqr"):
                lsqr = gbit.lsqr_solve(A, b, iters=self.lsqr_iters, x_true=truth)
            # the recipe's one max_iter caps both solvers
            config = gbit.GBiTConfig(
                eta=ETA, epsilon=eps, max_iter=self.lsqr_iters, x_true=truth
            )
            with clock.phase("recon_gbit"):
                solved.append((name, A, b, eps, lsqr, gbit.gbit_solve(A, b, config)))
        return truth, solved, images

    def check(self, outputs) -> dict:
        truth, solved, images = outputs
        errors = {}
        for name, A, b, eps, (x_l, rep_l), (x_g, rep_g) in solved:
            errors[f"lsqr:{name}"] = self.check_solver(f"lsqr:{name}", A, b, x_l, rep_l, truth)
            errors[f"gbit:{name}"] = self.check_solver(
                f"gbit:{name}", A, b, x_g, rep_g, truth, eps
            )
            if name == "forward":
                best_lsqr = float(np.nanmin(rep_l.rel_errors))
        for name, image in images:
            self.check_fbp(f"fbp:{name}", image.values, truth)
        if self.first_errors is None:
            self.first_errors = errors
        return {
            "rel_error_gbit": errors["gbit:forward"],
            "rel_error_lsqr": errors["lsqr:forward"],
            "error_ratio": errors["gbit:forward"] / best_lsqr,
        }

    def cross_check(self):
        """The step-by-step arms must reproduce run_experiment("full_ct")."""
        result = simlab.run_experiment(
            "full_ct", size=self.size, angles=self.angles, seed=self.seed,
            max_iter=self.lsqr_iters,
        )
        problems = []
        for name, arm in result.arms.items():
            for solver, value in (("lsqr", arm.lsqr_final_error), ("gbit", arm.gbit_final_error)):
                mine = self.first_errors[f"{solver}:{name}"]
                if abs(value - mine) > TOL * abs(mine):
                    problems.append(f"{solver}:{name} {mine!r} vs run_experiment {value!r}")
        self.ledger.record("run_experiment(full_ct)", problems)


class Cli(Workload):
    name = "cli-128"
    size, angles, lsqr_iters = 128, 180, 20

    def __init__(self, seed, reference=None, sizes=None, workdir: Path | None = None):
        super().__init__(seed, reference, sizes)
        self.workdir = Path(workdir)

    def problem(self):
        """The library form of the forward-model system the CLI solves."""
        sizes = {"size": self.size, "angles": self.angles, "lsqr_iters": self.lsqr_iters}
        return Krylov(self.seed, sizes=sizes).problem()

    def commands(self):
        """(phase, argv, outputs whose bytes must repeat from pass to pass).

        Manifests and graymaps carry timings, so they are left out."""
        recon = ["reconstruct", "--sino", "sino.txt"]
        truth = ["--truth", "phantom.txt"]
        return (
            ("setup", ["phantom", "--size", str(self.size), "--out", "phantom.txt"],
             ("phantom.txt",)),
            ("setup", ["simulate", "--phantom", "phantom.txt", "--angles", str(self.angles),
                       "--seed", str(self.seed), "--out", "sino.txt"],
             ("sino.txt",)),
            ("recon_gbit", recon + ["--solver", "gbit", "--epsilon", "manifest"] + truth
             + ["--out", "gbit"], ("gbit.image.txt", "gbit.report.csv")),
            ("recon_lsqr", recon + ["--solver", "lsqr", "--max-iter", str(self.lsqr_iters)]
             + truth + ["--out", "lsqr"], ("lsqr.image.txt", "lsqr.report.csv")),
            ("recon_fbp", recon + ["--solver", "fbp", "--out", "fbp"], ("fbp.image.txt",)),
        )

    def run_pass(self, clock: Clock):
        self.workdir.mkdir(parents=True, exist_ok=True)
        for stale in self.workdir.iterdir():
            stale.unlink()
        codes = []
        # relative paths keep the run ids, and so the file bytes, free of
        # the checkout's location
        cwd = os.getcwd()
        os.chdir(self.workdir)
        try:
            for phase, argv, _ in self.commands():
                out = io.StringIO()
                with clock.phase(phase), contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(out):
                    try:
                        code = cli.main(argv)
                    except SystemExit as exc:  # argparse rejected the command line
                        code = exc.code
                codes.append((code, out.getvalue()))
        finally:
            os.chdir(cwd)
        return codes

    def check(self, outputs) -> dict:
        errors = {}
        truth = None
        for (phase, argv, files), (code, text) in zip(self.commands(), outputs):
            what = f"{argv[0]}:{files[0]}"
            if code != 0:
                self.ledger.record(what, [f"exit code {code}: {text.strip()[-300:]}"])
                continue
            problems = []
            for name in files:
                problems += self.same_as_first_pass(name, (self.workdir / name).read_bytes())
            if argv[0] == "phantom":
                truth = fileio.read_image(self.workdir / "phantom.txt").values
            elif argv[0] == "reconstruct":
                solver = files[0].split(".")[0]
                values = fileio.read_image(self.workdir / files[0]).values
                if not np.all(np.isfinite(values)):
                    problems.append("non-finite image")
                errors[solver] = rel_error(values, truth)
                problems += self.against_reference(f"rel_error_{solver}", errors[solver])
                if solver == "gbit":
                    extra = fileio.read_manifest(self.workdir / "gbit.manifest.json").extra
                    if extra.get("termination") != "discrepancy_met":
                        problems.append(f"gbit ended with {extra.get('termination')}")
            self.ledger.record(what, problems)
        gbit_error, lsqr_error = errors.get("gbit", np.nan), errors.get("lsqr", np.nan)
        best_lsqr = np.nan
        if "lsqr" in errors:
            rows = fileio.read_report_csv(self.workdir / "lsqr.report.csv")
            best_lsqr = min(row["rel_error"] for row in rows)
        return {
            "rel_error_gbit": gbit_error,
            "rel_error_lsqr": lsqr_error,
            "error_ratio": gbit_error / best_lsqr,
        }


WORKLOADS = {cls.name: cls for cls in (Krylov, Study, Cli)}
