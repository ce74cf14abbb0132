"""Command-line front end.

Exit codes: 0 success, 2 usage error, 3 bad input (``OSError``, or an
``InputError`` naming the refused file), 4 numerical failure (solver
breakdown before any valid iterate, or a non-finite trace or image).
Any other exception is a defect and surfaces with its traceback.  Every
command writes a JSON manifest next to its primary output and stamps the
shared run id into the files it produces, so a result can always be
traced back to the exact command, configuration, and seed.  The run id
hashes the manifest's ``config``: the echoed flags (``_ECHOED``) and the
values the command resolved, such as the grid size.  Its ``wall_clock``
holds the seconds of each phase: ``build`` (the phantom's rasterization
or the projector's assembly), then ``simulate`` or ``solve``, then
``write`` (the output files, not the manifest itself).
"""

from __future__ import annotations

import argparse
import sys
import time
from contextlib import contextmanager

import numpy as np

from . import __version__
from .fbp import fbp_reconstruct
from .fileio import (
    InputError,
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
from .linops import scaled_norm
from .projector import (
    Image,
    OrbitProjector,
    ProjectionGeometry,
    Sinogram,
    uniform_angles,
)
from .simlab import (
    ModelErrorSpec,
    NoiseSpec,
    PhantomSpec,
    add_noise,
    generate_dpc_data,
    make_phantom,
    model_system,
    realized_epsilon,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_NUMERICAL = 4

_VARIANTS = {"modified": "shepp_logan_modified", "classic": "shepp_logan_classic"}
# reconstruct's solver flags, and the ones each solver reads
_SOLVER_FLAGS = ("eta", "epsilon", "lambda0", "maxcounter", "max_iter", "scheme")
_FLAGS_READ = {"gbit": (*_SOLVER_FLAGS, "truth"), "lsqr": ("max_iter", "truth"), "fbp": ()}
# the flags each command echoes into its manifest, in the parser's order
_ECHOED = {
    "phantom": ("size", "variant", "out"),
    "simulate": ("phantom", "angles", "detectors", "model", "omega", "noise", "offset", "seed",
                 "out"),
    "reconstruct": ("sino", "solver", "model", *_SOLVER_FLAGS, "truth", "out"),
}


class UsageError(Exception):
    pass


class NumericalFailure(Exception):
    pass


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
                   help=f"iteration cap (default {GBiTConfig.max_iter})")
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


@contextmanager
def _run_outputs(args, resolved: dict, clock: dict, outputs: list[str], **fields):
    """Yield the run id; time the body, which writes ``outputs``, as
    ``write``; then write the manifest beside ``args.out``.  ``resolved``
    updates the echoed flags in the config; ``fields`` are the manifest's
    optional ``seed`` and ``extra``."""
    config = {name: getattr(args, name) for name in _ECHOED[args.command] if name != "out"}
    config.update(resolved)
    run_id = make_run_id({"command": args.command, **config})
    with _timed(clock, "write"):
        yield run_id
    write_manifest(
        manifest_path_for(args.out),
        RunManifest(
            run_id=run_id,
            command=[args.command] + _echo_args(args, _ECHOED[args.command]),
            config=config,
            wall_clock=clock,
            outputs=outputs,
            **fields,
        ),
    )


def cmd_phantom(args) -> int:
    if args.size < 8:
        raise UsageError(f"--size must be >= 8, got {args.size}")
    clock: dict = {}
    with _timed(clock, "build"):
        image = make_phantom(PhantomSpec(variant=_VARIANTS[args.variant], size=args.size))
    pgm_path = args.out + ".pgm"
    with _run_outputs(args, {}, clock, [args.out, pgm_path]) as run_id:
        write_image(args.out, image, run_id)
        write_image_pgm(pgm_path, image)
    print(f"wrote {args.out} and {pgm_path} (run {run_id})")
    return EXIT_OK


def cmd_simulate(args) -> int:
    if not 0.0 <= args.omega < 0.5:
        raise UsageError(f"--omega must be in [0, 0.5), got {args.omega}")
    if not 0.0 <= args.noise < np.inf:
        raise UsageError(f"--noise must be finite and >= 0, got {args.noise}")
    if not np.isfinite(args.offset):
        raise UsageError(f"--offset must be finite, got {args.offset}")
    if args.angles < 1:
        raise UsageError(f"--angles must be >= 1, got {args.angles}")
    if args.detectors is not None and args.detectors < 2:
        # the difference stencils need blocks of at least two detectors
        raise UsageError(f"--detectors must be >= 2, got {args.detectors}")
    image = read_image(args.phantom)
    if args.detectors is None and image.n_x < 2:
        raise InputError(
            f"{args.phantom}: the image is {image.n_x} pixel wide, and the detector "
            "count defaults to the width; pass --detectors N with N >= 2"
        )
    detectors = args.detectors if args.detectors is not None else image.n_x
    clock: dict = {}
    geom = ProjectionGeometry(
        n_x=image.n_x, n_y=image.n_y, k=detectors, angles=uniform_angles(args.angles)
    )
    with _timed(clock, "build"):
        # a quarter of the angles traced, unless --detectors or an odd
        # --angles leaves the orbit rule (projector.py)
        projector = OrbitProjector(geom)
    # image values near the float range overflow the data or their norms,
    # which the check below refuses
    with _timed(clock, "simulate"), np.errstate(over="ignore", invalid="ignore"):
        b_f, b_c = generate_dpc_data(image, geom, ModelErrorSpec(args.omega), projector=projector)
        clean = (b_f if args.model == "forward" else b_c).values
        if args.noise > 0.0 and not np.any(clean):
            raise InputError(
                f"{args.phantom}: the image's {args.model}-model data are all zero, "
                "which relative noise cannot scale to; pass --noise 0"
            )
        noisy = add_noise(clean, NoiseSpec(level=args.noise, offset=args.offset, seed=args.seed))
        extra = {"epsilon_noise": realized_epsilon(args.model, noisy, clean, projector)}
        if args.model == "forward":
            extra["epsilon_phase_retrieval"] = realized_epsilon(
                "phase_retrieval", noisy, clean, projector
            )
    if not (np.isfinite(noisy).all() and np.isfinite(list(extra.values())).all()):
        raise InputError(f"{args.phantom}: the simulated {args.model}-model data or their "
                         "noise norms overflow to inf or nan; the image values are too large")
    resolved = {"n_x": image.n_x, "n_y": image.n_y, "detectors": detectors, "h": geom.h}
    with _run_outputs(args, resolved, clock, [args.out], seed=args.seed, extra=extra) as run_id:
        sino = Sinogram(k=geom.k, l=geom.l, values=noisy, h=geom.h)
        write_sinogram(args.out, sino, run_id)
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
        try:
            epsilon = float(manifest.extra[key])
        except (TypeError, ValueError):
            epsilon = np.nan
        if not np.isfinite(epsilon):
            raise InputError(f"{manifest_path_for(args.sino)}: {key} is not a finite number")
        return epsilon
    try:
        return float(args.epsilon)
    except ValueError:
        raise UsageError(f"--epsilon must be a number or 'manifest', got {args.epsilon!r}")


def _solver_config(args, manifest: RunManifest, truth) -> GBiTConfig:
    """The iterative solver's settings from the flags, checked before any
    work starts; ``lsqr`` runs the fixed scheme at weight zero.  Flags the
    user left unset keep ``GBiTConfig``'s defaults."""
    if args.solver == "lsqr":
        flags = {"update_scheme": "fixed", "lambda0": 0.0}
    else:
        flags = {"eta": args.eta, "epsilon": _resolve_epsilon(args, manifest),
                 "lambda0": args.lambda0, "maxcounter": args.maxcounter,
                 "update_scheme": args.scheme or GBiTConfig.update_scheme}
        if flags["update_scheme"] == "classic" and flags["epsilon"] is None:
            raise UsageError(
                "gbit with the classic scheme selects the ridge weight by the "
                "discrepancy rule, which needs the noise norm: pass --epsilon "
                "VALUE or --epsilon manifest (or use --scheme alternative)"
            )
    flags.update(max_iter=args.max_iter, x_true=None if truth is None else truth.values)
    try:
        return GBiTConfig(**{name: value for name, value in flags.items() if value is not None})
    except ValueError as exc:  # the settings come from flags: a usage error
        raise UsageError(str(exc)) from exc


def cmd_reconstruct(args) -> int:
    sino = read_sinogram(args.sino)
    if sino.k < 2 and args.model != "phase-retrieval":
        raise InputError(
            f"{args.sino}: the sinogram has k={sino.k} detectors per angle, and the "
            f"{args.model} difference model needs k >= 2"
        )
    manifest_path = manifest_path_for(args.sino)
    try:
        manifest_in = read_manifest(manifest_path)
    except FileNotFoundError:
        raise UsageError(
            f"no manifest sidecar at {manifest_path}; the grid size of "
            "the reconstruction comes from the manifest written by 'simulate'"
        )
    try:
        geom = ProjectionGeometry(
            n_x=int(manifest_in.config["n_x"]), n_y=int(manifest_in.config["n_y"]),
            k=sino.k, angles=uniform_angles(sino.l), h=sino.h,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(
            f"{manifest_path}: config carries no valid grid size n_x, n_y ({exc})"
        ) from exc

    ignored = [
        n for n in (*_SOLVER_FLAGS, "truth")
        if n not in _FLAGS_READ[args.solver] and getattr(args, n) is not None
    ]
    if ignored:
        print(f"warning: {args.solver} ignores the flags {', '.join(map(_flag, ignored))}",
              file=sys.stderr)

    truth = None
    if args.truth is not None and "truth" not in ignored:
        truth = read_image(args.truth)
        if (truth.n_x, truth.n_y) != (geom.n_x, geom.n_y):
            raise UsageError("--truth grid does not match the sinogram's manifest grid")
        norm = scaled_norm(truth.values)
        if norm == 0.0 or np.isinf(norm):
            raise InputError(f"{args.truth}: the ground-truth image's norm is {norm:g}, "
                             "so the error trace relative to it is undefined")
    solver_config = None if args.solver == "fbp" else _solver_config(args, manifest_in, truth)

    clock: dict = {}
    with _timed(clock, "build"):
        # a quarter of the angles traced, unless the sinogram's detector
        # count, spacing or odd angle count leaves the orbit rule
        projector = OrbitProjector(geom)

    report = None
    extra: dict = {}
    # data near the float range overflow the filter or the solver's
    # products; the checks below refuse the right-hand side or the image
    with _timed(clock, "solve"), np.errstate(over="ignore", invalid="ignore"):
        operator, data, kind = model_system(args.model.replace("-", "_"), sino.values, projector)
        # undoing the difference can overflow; the Krylov solvers need a finite norm too
        if not np.isfinite(data).all() or args.solver != "fbp" and np.isinf(scaled_norm(data)):
            raise InputError(f"{args.sino}: the {args.model} right-hand side or its norm "
                             "overflows to inf; the data are too large")
        if args.solver == "fbp":
            profile = Sinogram(k=sino.k, l=sino.l, values=data, h=sino.h)
            image_out = fbp_reconstruct(profile, geom, kind, projector=projector)
        else:
            if args.solver == "lsqr":
                x, report = lsqr_solve(
                    operator, data, iters=solver_config.max_iter, x_true=solver_config.x_true
                )
            else:
                x, report = gbit_solve(operator, data, solver_config)
            if report.termination == "breakdown" and not report.records:
                raise NumericalFailure(
                    f"bidiagonalization broke down ({report.breakdown}) before "
                    "producing any iterate"
                )
            image_out = Image(n_x=geom.n_x, n_y=geom.n_y, values=x)
            extra["termination"] = report.termination
            extra["breakdown"] = report.breakdown
            extra["iterations"] = report.iterations
            if report.records and report.records[-1].rel_error is not None:
                extra["final_rel_error"] = report.records[-1].rel_error
        if not np.isfinite(image_out.values).all():
            raise NumericalFailure(f"{args.solver} produced a non-finite image")

    image_path, pgm_path = args.out + ".image.txt", args.out + ".image.pgm"
    report_path = args.out + ".report.csv"
    outputs = [image_path, pgm_path] + ([report_path] if report is not None else [])
    # an ignored flag is recorded as unset, so the run id and the files'
    # bytes depend only on what the solver read
    resolved = {"n_x": geom.n_x, "n_y": geom.n_y, **dict.fromkeys(ignored)}
    with _run_outputs(args, resolved, clock, outputs, extra=extra) as run_id:
        write_image(image_path, image_out, run_id)
        write_image_pgm(pgm_path, image_out)
        if report is not None:
            write_report_csv(report_path, report, run_id)
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
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (NumericalFailure, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def entry_point():
    sys.exit(main())
