"""Command-line front end.

Exit codes: 0 success, 2 usage error, 3 I/O failure (including input
files holding NaN or inf), 4 numerical failure (solver breakdown before
any valid iterate, or a solver trace gone non-finite).  Every command
writes a JSON manifest next to its primary output and stamps the shared
run id into the files it produces, so a result can always be traced back
to the exact command, configuration, and seed.
"""

from __future__ import annotations

import argparse
import sys
import time
from contextlib import contextmanager

import numpy as np

from . import __version__
from .diffops import invert_forward, make_diff
from .fbp import fbp_reconstruct
from .fileio import (
    RunManifest,
    make_run_id,
    manifest_path_for,
    read_image,
    read_manifest,
    read_sinogram,
    write_image,
    write_image_pgm,
    write_manifest,
    write_report_csv,
    write_sinogram,
)
from .gbit import GBiTConfig, gbit_solve, lsqr_solve
from .linops import compose
from .projector import Image, ProjectionGeometry, Sinogram, build_projector, uniform_angles
from .simlab import (
    ModelErrorSpec,
    NoiseSpec,
    PhantomSpec,
    add_noise,
    generate_dpc_data,
    make_phantom,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_NUMERICAL = 4

_VARIANTS = {"modified": "shepp_logan_modified", "classic": "shepp_logan_classic"}
_MAX_ITER = 200  # the CLI's iteration cap; every other solver default is GBiTConfig's
# reconstruct's flags that only the iterative solvers read
_SOLVER_FLAGS = ("eta", "epsilon", "lambda0", "maxcounter", "max_iter", "scheme")


class UsageError(Exception):
    pass


class NumericalFailure(Exception):
    pass


@contextmanager
def _flag_values():
    """A ValueError raised inside comes from a flag's value: a usage error."""
    try:
        yield
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpctomo",
        description="Differential phase-contrast CT: simulation and reconstruction.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("phantom", help="rasterize a head phantom to image files")
    p.add_argument("--size", type=int, required=True, help="grid size N (square, N >= 8)")
    p.add_argument("--variant", choices=sorted(_VARIANTS), default="modified")
    p.add_argument("--out", required=True, help="output path for the exact float image")
    p.set_defaults(func=cmd_phantom)

    p = sub.add_parser("simulate", help="generate differenced projection data")
    p.add_argument("--phantom", required=True, help="input image (float format)")
    p.add_argument("--angles", type=int, required=True, help="number of projection angles")
    p.add_argument("--detectors", type=int, default=None, help="detector count (default: grid width)")
    p.add_argument("--model", choices=["forward", "central"], default="forward")
    p.add_argument("--omega", type=float, default=0.2, help="model-error mixing weight in [0, 0.5)")
    p.add_argument("--noise", type=float, default=0.10, help="relative noise level")
    p.add_argument("--offset", type=float, default=0.0, help="constant offset added to the noise")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output sinogram path")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("reconstruct", help="reconstruct an image from a sinogram")
    p.add_argument("--sino", required=True, help="input sinogram (needs its manifest sidecar)")
    p.add_argument("--solver", choices=["gbit", "lsqr", "fbp"], required=True)
    p.add_argument("--model", choices=["forward", "central", "phase-retrieval"], default="forward")
    p.add_argument("--eta", type=float, default=None,
                   help=f"discrepancy tolerance factor (default {GBiTConfig.eta})")
    p.add_argument("--epsilon", default=None,
                   help="noise-norm estimate, or 'manifest' to use the realized value")
    p.add_argument("--lambda0", type=float, default=None,
                   help=f"initial ridge weight (default {GBiTConfig.lambda0})")
    p.add_argument("--maxcounter", type=int, default=None,
                   help=f"extra times the stop test must hold (default {GBiTConfig.maxcounter})")
    p.add_argument("--max-iter", type=int, default=None,
                   help=f"iteration cap (default {_MAX_ITER})")
    p.add_argument("--scheme", choices=["classic", "alternative"], default=None)
    p.add_argument("--truth", default=None, help="ground-truth image for the error trace")
    p.add_argument("--out", required=True, help="output prefix")
    p.set_defaults(func=cmd_reconstruct)
    return parser


@contextmanager
def _timed(clock: dict, phase: str):
    t0 = time.perf_counter()
    yield
    clock[phase] = round(time.perf_counter() - t0, 6)


def cmd_phantom(args) -> int:
    if args.size < 8:
        raise UsageError(f"--size must be >= 8, got {args.size}")
    config = {"size": args.size, "variant": args.variant}
    run_id = make_run_id({"command": "phantom", **config})
    clock: dict = {}
    with _timed(clock, "build"):
        image = make_phantom(PhantomSpec(variant=_VARIANTS[args.variant], size=args.size))
    pgm_path = args.out + ".pgm"
    with _timed(clock, "write"):
        write_image(args.out, image, run_id)
        write_image_pgm(pgm_path, image)
        write_manifest(
            manifest_path_for(args.out),
            RunManifest(
                run_id=run_id,
                command=["phantom"] + _echo_args(args, ["size", "variant", "out"]),
                config=config,
                wall_clock=clock,
                outputs=[args.out, pgm_path],
            ),
        )
    print(f"wrote {args.out} and {pgm_path} (run {run_id})")
    return EXIT_OK


def cmd_simulate(args) -> int:
    if not 0.0 <= args.omega < 0.5:
        raise UsageError(f"--omega must be in [0, 0.5), got {args.omega}")
    if args.noise < 0.0:
        raise UsageError(f"--noise must be >= 0, got {args.noise}")
    if args.angles < 1:
        raise UsageError(f"--angles must be >= 1, got {args.angles}")
    if args.detectors is not None and args.detectors < 2:
        # the difference stencils need blocks of at least two detectors
        raise UsageError(f"--detectors must be >= 2, got {args.detectors}")
    image = read_image(args.phantom)
    detectors = args.detectors if args.detectors is not None else image.n_x
    config = {
        "phantom": args.phantom,
        "n_x": image.n_x,
        "n_y": image.n_y,
        "angles": args.angles,
        "detectors": detectors,
        "h": 1.0,
        "model": args.model,
        "omega": args.omega,
        "noise": args.noise,
        "offset": args.offset,
        "seed": args.seed,
    }
    run_id = make_run_id({"command": "simulate", **config})
    clock: dict = {}
    with _flag_values():
        geom = ProjectionGeometry(
            n_x=image.n_x, n_y=image.n_y, k=detectors, angles=uniform_angles(args.angles)
        )
    with _timed(clock, "build"):
        projector = build_projector(geom)
    with _timed(clock, "simulate"):
        b_f, b_c = generate_dpc_data(image, geom, ModelErrorSpec(args.omega), projector=projector)
        clean = (b_f if args.model == "forward" else b_c).values
        noisy = add_noise(clean, NoiseSpec(level=args.noise, offset=args.offset, seed=args.seed))
        extra = {"epsilon_noise": float(np.linalg.norm(noisy - clean))}
        if args.model == "forward":
            extra["epsilon_phase_retrieval"] = float(
                np.linalg.norm(
                    invert_forward(noisy, geom.k, geom.l) - invert_forward(clean, geom.k, geom.l)
                )
            )
    with _timed(clock, "write"):
        sino = Sinogram(k=geom.k, l=geom.l, values=noisy, h=geom.h)
        write_sinogram(args.out, sino, run_id)
        write_manifest(
            manifest_path_for(args.out),
            RunManifest(
                run_id=run_id,
                command=["simulate"] + _echo_args(
                    args,
                    ["phantom", "angles", "detectors", "model", "omega", "noise",
                     "offset", "seed", "out"],
                ),
                config=config,
                seed=args.seed,
                wall_clock=clock,
                outputs=[args.out],
                extra=extra,
            ),
        )
    print(f"wrote {args.out} (run {run_id}, realized epsilon {extra['epsilon_noise']:.6g})")
    return EXIT_OK


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _echo_args(args, names) -> list[str]:
    echoed = []
    for name in names:
        value = getattr(args, name)
        if value is not None:
            echoed += [_flag(name), str(value)]
    return echoed


def _resolve_epsilon(args, manifest: RunManifest) -> float | None:
    if args.epsilon is None:
        return None
    if args.epsilon == "manifest":
        key = (
            "epsilon_phase_retrieval"
            if args.model == "phase-retrieval"
            else "epsilon_noise"
        )
        if key not in manifest.extra:
            raise UsageError(f"manifest carries no realized value {key!r}")
        return float(manifest.extra[key])
    try:
        return float(args.epsilon)
    except ValueError:
        raise UsageError(f"--epsilon must be a number or 'manifest', got {args.epsilon!r}")


def _solver_config(args, manifest: RunManifest, truth) -> GBiTConfig:
    """The iterative solver's settings from the flags, checked before any
    work starts; ``lsqr`` runs the fixed scheme at weight zero.  Flags the
    user left unset keep ``GBiTConfig``'s defaults, except ``max_iter``,
    whose CLI default is ``_MAX_ITER``."""
    x_true = truth.values if truth is not None else None
    max_iter = args.max_iter if args.max_iter is not None else _MAX_ITER
    if args.solver == "lsqr":
        config = GBiTConfig(update_scheme="fixed", lambda0=0.0, max_iter=max_iter, x_true=x_true)
    else:
        flags = {"eta": args.eta, "lambda0": args.lambda0, "maxcounter": args.maxcounter,
                 "update_scheme": args.scheme}
        config = GBiTConfig(
            epsilon=_resolve_epsilon(args, manifest), max_iter=max_iter, x_true=x_true,
            **{name: value for name, value in flags.items() if value is not None},
        )
        if config.update_scheme == "classic" and config.epsilon is None:
            raise UsageError(
                "gbit with the classic scheme selects the ridge weight by the "
                "discrepancy rule, which needs the noise norm: pass --epsilon "
                "VALUE or --epsilon manifest (or use --scheme alternative)"
            )
    with _flag_values():
        config.validate()
    return config


def cmd_reconstruct(args) -> int:
    sino = read_sinogram(args.sino)
    manifest_path = manifest_path_for(args.sino)
    try:
        manifest_in = read_manifest(manifest_path)
    except FileNotFoundError:
        raise UsageError(
            f"no manifest sidecar at {manifest_path}; the grid size of "
            "the reconstruction comes from the manifest written by 'simulate'"
        )
    try:
        n_x = int(manifest_in.config["n_x"])
        n_y = int(manifest_in.config["n_y"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{manifest_path}: config carries no grid size n_x, n_y") from exc

    if args.solver == "fbp":
        ignored = [_flag(n) for n in _SOLVER_FLAGS if getattr(args, n) is not None]
        if ignored:
            print(f"warning: fbp ignores solver-only flags: {', '.join(ignored)}", file=sys.stderr)

    truth = None
    if args.truth is not None:
        truth = read_image(args.truth)
        if (truth.n_x, truth.n_y) != (n_x, n_y):
            raise UsageError("--truth grid does not match the sinogram's manifest grid")
    solver_config = None if args.solver == "fbp" else _solver_config(args, manifest_in, truth)

    config = {
        "sino": args.sino,
        "solver": args.solver,
        "model": args.model,
        **{name: getattr(args, name) for name in _SOLVER_FLAGS},
        "truth": args.truth,
        "n_x": n_x,
        "n_y": n_y,
    }
    run_id = make_run_id({"command": "reconstruct", **config})
    clock: dict = {}
    with _timed(clock, "build"):
        geom = ProjectionGeometry(
            n_x=n_x, n_y=n_y, k=sino.k, angles=uniform_angles(sino.l), h=sino.h
        )
        projector = build_projector(geom)

    report = None
    extra: dict = {}
    with _timed(clock, "solve"):
        if args.solver == "fbp":
            if args.model == "phase-retrieval":
                profile = Sinogram(
                    k=sino.k, l=sino.l,
                    values=invert_forward(sino.values, sino.k, sino.l), h=sino.h,
                )
                image_out = fbp_reconstruct(profile, geom, "ramp", projector=projector)
            else:
                image_out = fbp_reconstruct(sino, geom, "dpc", projector=projector)
        else:
            if args.model == "phase-retrieval":
                operator = projector
                rhs = invert_forward(sino.values, sino.k, sino.l)
            else:
                operator = compose(make_diff(args.model, sino.k, sino.l), projector)
                rhs = sino.values
            if args.solver == "lsqr":
                x, report = lsqr_solve(
                    operator, rhs, iters=solver_config.max_iter, x_true=solver_config.x_true
                )
            else:
                x, report = gbit_solve(operator, rhs, solver_config)
            if report.termination == "breakdown" and not report.records:
                raise NumericalFailure(
                    f"bidiagonalization broke down ({report.breakdown}) before "
                    "producing any iterate"
                )
            image_out = Image(n_x=n_x, n_y=n_y, values=x)
            extra["termination"] = report.termination
            extra["breakdown"] = report.breakdown
            extra["iterations"] = report.iterations
            if report.records and report.records[-1].rel_error is not None:
                extra["final_rel_error"] = report.records[-1].rel_error

    image_path = args.out + ".image.txt"
    pgm_path = args.out + ".image.pgm"
    outputs = [image_path, pgm_path]
    with _timed(clock, "write"):
        write_image(image_path, image_out, run_id)
        write_image_pgm(pgm_path, image_out)
        if report is not None:
            report_path = args.out + ".report.csv"
            write_report_csv(report_path, report, run_id)
            outputs.append(report_path)
        write_manifest(
            args.out + ".manifest.json",
            RunManifest(
                run_id=run_id,
                command=["reconstruct"] + _echo_args(
                    args, ["sino", "solver", "model", *_SOLVER_FLAGS, "truth", "out"]
                ),
                config=config,
                wall_clock=clock,
                outputs=outputs,
                extra=extra,
            ),
        )
    summary = f"wrote {', '.join(outputs)} (run {run_id}"
    if "termination" in extra:
        summary += f", {extra['termination']} after {extra['iterations']} iterations"
    print(summary + ")")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, ValueError) as exc:
        # ValueError here means a malformed input file: the geometry and
        # solver settings taken from flags are checked, and mapped to
        # UsageError, before any work starts
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (NumericalFailure, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def entry_point():
    sys.exit(main())
