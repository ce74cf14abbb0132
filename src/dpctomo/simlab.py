"""Phantoms, simulated measurement generation, and scripted experiments.

Data generation avoids the inverse crime by operator mixing: the clean
projection profile is differenced with both stencils and the two model
datasets are convex mixtures of the pair, so neither solver arm inverts
the exact operator that produced its data.  Noise is drawn from a seeded
standard-normal stream, optionally offset by a constant, and rescaled so
the realized relative perturbation equals the requested level exactly.

Experiments come in two families: a single-projection study solving the
blockwise difference system for one projection profile, and a full
tomography study solving the composed difference-of-projection system,
each with unregularized and regularized arms per difference model (the
tomography study adds the two-step arm that undoes the forward difference
first and then inverts the plain projection operator).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any

import numpy as np

from .diffops import invert_forward, make_diff
from .gbit import GBiTConfig, GBiTReport, gbit_solve, lsqr_solve
from .linops import LinearOperator, as_vector, compose
from .projector import (
    Image,
    ProjectionGeometry,
    Sinogram,
    build_projector,
    project,
    standard_geometry,
)

PHANTOM_VARIANTS = ("shepp_logan_modified", "shepp_logan_classic")

# (x0, y0, half-axis a, half-axis b, rotation in degrees) on the unit square
_ELLIPSES = (
    (0.0, 0.0, 0.69, 0.92, 0.0),
    (0.0, -0.0184, 0.6624, 0.8740, 0.0),
    (0.22, 0.0, 0.11, 0.31, -18.0),
    (-0.22, 0.0, 0.16, 0.41, 18.0),
    (0.0, 0.35, 0.21, 0.25, 0.0),
    (0.0, 0.1, 0.046, 0.046, 0.0),
    (0.0, -0.1, 0.046, 0.046, 0.0),
    (-0.08, -0.605, 0.046, 0.023, 0.0),
    (0.0, -0.606, 0.023, 0.023, 0.0),
    (0.06, -0.605, 0.023, 0.046, 0.0),
)

_INTENSITIES = {
    "shepp_logan_modified": (1.0, -0.8, -0.2, -0.2, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1),
    "shepp_logan_classic": (2.0, -0.98, -0.02, -0.02, 0.01, 0.01, 0.01, 0.01, 0.01, 0.01),
}


@dataclass(frozen=True)
class PhantomSpec:
    variant: str = "shepp_logan_modified"
    size: int = 256

    def __post_init__(self):
        if self.variant not in PHANTOM_VARIANTS:
            raise ValueError(
                f"unknown phantom variant {self.variant!r}; expected one of {PHANTOM_VARIANTS}"
            )
        if self.size < 8:
            raise ValueError(f"phantom size must be >= 8, got {self.size}")


@dataclass(frozen=True)
class NoiseSpec:
    level: float
    offset: float = 0.0
    seed: Any = 0

    def __post_init__(self):
        if self.level < 0.0:
            raise ValueError(f"noise level must be >= 0, got {self.level}")


@dataclass(frozen=True)
class ModelErrorSpec:
    omega: float = 0.2

    def __post_init__(self):
        if not 0.0 <= self.omega < 0.5:
            raise ValueError(f"mixing weight omega must be in [0, 0.5), got {self.omega}")


def make_phantom(spec: PhantomSpec) -> Image:
    """Ellipse-sum head phantom rasterized by center-of-pixel membership."""
    n = spec.size
    centers = -1.0 + (np.arange(n) + 0.5) * (2.0 / n)
    x = centers[None, :]  # grid columns
    y = centers[:, None]  # grid rows
    values = np.zeros((n, n))
    for (x0, y0, a, b, phi_deg), level in zip(_ELLIPSES, _INTENSITIES[spec.variant]):
        phi = np.deg2rad(phi_deg)
        dx, dy = x - x0, y - y0
        u = (dx * np.cos(phi) + dy * np.sin(phi)) / a
        v = (-dx * np.sin(phi) + dy * np.cos(phi)) / b
        values += level * (u * u + v * v <= 1.0)
    return Image.from_matrix(values)


def generate_dpc_data(
    img: Image,
    geom: ProjectionGeometry,
    model_error: ModelErrorSpec,
    projector=None,
):
    """Differenced projection data as a mixed pair (forward-model data,
    central-model data), both derived from one clean projection of the
    image so that neither equals its own model applied to the truth."""
    op = projector if projector is not None else build_projector(geom)
    y = project(op, img).values
    d_forward = make_diff("forward", geom.k, geom.l).apply(y)
    d_central = make_diff("central", geom.k, geom.l).apply(y)
    w = model_error.omega
    b_f = (1.0 - w) * d_forward + w * d_central
    b_c = w * d_forward + (1.0 - w) * d_central
    return (
        Sinogram(k=geom.k, l=geom.l, values=b_f, h=geom.h),
        Sinogram(k=geom.k, l=geom.l, values=b_c, h=geom.h),
    )


def add_noise(b_clean, spec: NoiseSpec) -> np.ndarray:
    """Perturb a measurement vector by scaled (optionally offset) normal
    noise; the realized relative perturbation equals ``spec.level``."""
    b = np.asarray(b_clean, dtype=np.float64)
    if b.ndim != 1:
        raise ValueError(f"expected a measurement vector, got shape {b.shape}")
    if spec.level == 0.0:
        return b.copy()
    clean_norm = float(np.linalg.norm(b))
    if clean_norm == 0.0:
        raise ValueError("cannot scale noise relative to an all-zero measurement vector")
    rng = np.random.default_rng(spec.seed)
    e = rng.standard_normal(b.size) + spec.offset
    return b + spec.level * (clean_norm / float(np.linalg.norm(e))) * e


def phase_retrieval_rhs(b, k: int, l: int) -> np.ndarray:
    """Undo the blockwise forward difference, turning derivative data back
    into plain projection data (the first step of the two-step path)."""
    return invert_forward(b, k, l)


def relative_error(x, x_true) -> float:
    x = np.asarray(x, dtype=np.float64).ravel()
    x_true = np.asarray(x_true, dtype=np.float64).ravel()
    truth_norm = float(np.linalg.norm(x_true))
    if truth_norm == 0.0:
        raise ValueError("relative error is undefined against a zero ground truth")
    return float(np.linalg.norm(x - x_true) / truth_norm)


# fixed per-arm offsets so every arm draws from its own seeded stream
_ARM_SEED_OFFSETS = {"model_error": 11, "noise": 23, "offset": 37, "full_ct": 53}


def derived_seed(master_seed: int, arm: str):
    return [int(master_seed), _ARM_SEED_OFFSETS[arm]]


@dataclass
class ReconstructionArm:
    """One (data arm, difference model) reconstruction pair."""

    model: str
    epsilon: float
    b: np.ndarray
    truth: np.ndarray
    lsqr_solution: np.ndarray
    lsqr_report: GBiTReport
    gbit_solution: np.ndarray
    gbit_report: GBiTReport

    @property
    def lsqr_final_error(self) -> float:
        return relative_error(self.lsqr_solution, self.truth)

    @property
    def gbit_final_error(self) -> float:
        return relative_error(self.gbit_solution, self.truth)


@dataclass
class ExperimentResult:
    name: str
    params: dict
    arms: dict[str, ReconstructionArm] = field(default_factory=dict)


def _solve_arm(
    A: LinearOperator, b, truth, epsilon, model, config: GBiTConfig
) -> ReconstructionArm:
    b = as_vector(b, A.rows, "arm data")
    x_lsqr, rep_lsqr = lsqr_solve(A, b, iters=config.max_iter, x_true=truth)
    x_gbit, rep_gbit = gbit_solve(A, b, replace(config, epsilon=epsilon, x_true=truth))
    return ReconstructionArm(
        model=model,
        epsilon=epsilon,
        b=b,
        truth=np.asarray(truth, dtype=np.float64),
        lsqr_solution=x_lsqr,
        lsqr_report=rep_lsqr,
        gbit_solution=x_gbit,
        gbit_report=rep_gbit,
    )


def _realized_epsilon(b, b_clean, A: LinearOperator, truth) -> float:
    """Noise norm realized in the data.

    Falls back to the full data error for a noiseless arm (pure model
    error), and to a tiny multiple of the data norm when the data are
    exact, so the discrepancy target is never zero."""
    eps = float(np.linalg.norm(b - b_clean))
    if eps == 0.0:
        eps = float(np.linalg.norm(b - A.apply(truth)))
    if eps == 0.0:
        eps = 1e-12 * float(np.linalg.norm(b))
    return eps


# the studies' solver keywords and the GBiTConfig field each one sets
_SOLVER_KEYS = {
    "eta": "eta",
    "lambda0": "lambda0",
    "max_iter": "max_iter",
    "maxcounter": "maxcounter",
    "scheme": "update_scheme",
}
_MAX_ITER = 200  # the studies' iteration cap; every other solver default is GBiTConfig's


def _solver_config(params: dict) -> tuple[GBiTConfig, dict]:
    """The solver settings from the keywords the caller set, and those
    settings under their keyword names for the result's parameters."""
    given = {name: params[key] for key, name in _SOLVER_KEYS.items() if key in params}
    config = GBiTConfig(**{"max_iter": _MAX_ITER, **given})
    return config, {key: getattr(config, name) for key, name in _SOLVER_KEYS.items()}


def _run_single_projection(arm_labels, **params) -> ExperimentResult:
    size = int(params.get("size", 256))
    detectors = int(params.get("detectors", size))
    variant = params.get("variant", "shepp_logan_modified")
    omega = float(params.get("omega", 0.2))
    model_error = ModelErrorSpec(omega=omega)
    noise_level = float(params.get("noise", 0.10))
    offset = float(params.get("offset", 5.0))
    seed = int(params.get("seed", 0))
    solver, solver_params = _solver_config(params)

    phantom = make_phantom(PhantomSpec(variant=variant, size=size))
    geom = ProjectionGeometry(n_x=size, n_y=size, k=detectors, angles=np.array([np.pi / 2.0]))
    projector = build_projector(geom)
    y = project(projector, phantom).values
    ops = {
        "forward": make_diff("forward", geom.k, geom.l),
        "central": make_diff("central", geom.k, geom.l),
    }
    clean = {name: op.apply(y) for name, op in ops.items()}

    result = ExperimentResult(
        name="single_projection" if "offset" not in arm_labels else "single_projection_offset",
        params={**solver_params, "size": size, "detectors": detectors, "omega": omega,
                "noise": noise_level, "offset": offset, "seed": seed},
    )
    for arm in arm_labels:
        if arm == "model_error":
            mixed = generate_dpc_data(phantom, geom, model_error, projector=projector)
            data = {"forward": mixed[0].values, "central": mixed[1].values}
        else:
            spec = NoiseSpec(
                level=noise_level,
                offset=offset if arm == "offset" else 0.0,
                seed=derived_seed(seed, arm),
            )
            data = {name: add_noise(clean[name], spec) for name in ops}
        for name, op in ops.items():
            b = data[name]
            eps = _realized_epsilon(b, clean[name], op, y)
            result.arms[f"{arm}:{name}"] = _solve_arm(op, b, y, eps, name, solver)
    return result


def _run_full_ct(**params) -> ExperimentResult:
    size = int(params.get("size", 64))
    num_angles = int(params.get("angles", 90))
    detectors = int(params.get("detectors", size))
    variant = params.get("variant", "shepp_logan_modified")
    omega = float(params.get("omega", 0.2))
    noise_level = float(params.get("noise", 0.10))
    offset = float(params.get("offset", 0.0))
    seed = int(params.get("seed", 0))
    solver, solver_params = _solver_config(params)

    phantom = make_phantom(PhantomSpec(variant=variant, size=size))
    geom = standard_geometry(size, num_angles, detectors)
    projector = build_projector(geom)
    b_f_clean, b_c_clean = generate_dpc_data(
        phantom, geom, ModelErrorSpec(omega=omega), projector=projector
    )
    noise = NoiseSpec(level=noise_level, offset=offset, seed=derived_seed(seed, "full_ct"))
    b_f = add_noise(b_f_clean.values, noise)
    b_c = add_noise(b_c_clean.values, noise)

    x_true = phantom.values
    result = ExperimentResult(
        name="full_ct",
        params={**solver_params, "size": size, "angles": num_angles, "detectors": detectors,
                "omega": omega, "noise": noise_level, "offset": offset, "seed": seed},
    )

    a_forward = compose(make_diff("forward", geom.k, geom.l), projector)
    a_central = compose(make_diff("central", geom.k, geom.l), projector)
    eps_f = _realized_epsilon(b_f, b_f_clean.values, a_forward, x_true)
    eps_c = _realized_epsilon(b_c, b_c_clean.values, a_central, x_true)
    result.arms["forward"] = _solve_arm(a_forward, b_f, x_true, eps_f, "forward", solver)
    result.arms["central"] = _solve_arm(a_central, b_c, x_true, eps_c, "central", solver)

    rhs_pr = phase_retrieval_rhs(b_f, geom.k, geom.l)
    rhs_pr_clean = phase_retrieval_rhs(b_f_clean.values, geom.k, geom.l)
    eps_pr = _realized_epsilon(rhs_pr, rhs_pr_clean, projector, x_true)
    result.arms["phase_retrieval"] = _solve_arm(
        projector, rhs_pr, x_true, eps_pr, "phase_retrieval", solver
    )
    return result


def run_experiment(name: str, **params) -> ExperimentResult:
    """Run a named study; see the module docstring for the recipes.

    ``single_projection`` runs a model-error arm (omega mixing, no noise)
    and a noise arm (no mixing, relative noise); ``single_projection_offset``
    runs the noise arm with a constant offset added to the noise;
    ``full_ct`` combines mixing and noise over many angles and adds the
    two-step arm.  Keyword parameters override the per-study defaults
    (size, angles, detectors, omega, noise, offset, seed, and the solver
    settings eta, lambda0, max_iter, maxcounter, scheme).
    """
    if name == "single_projection":
        return _run_single_projection(("model_error", "noise"), **params)
    if name == "single_projection_offset":
        params.setdefault("offset", 5.0)
        return _run_single_projection(("offset",), **params)
    if name == "full_ct":
        return _run_full_ct(**params)
    raise ValueError(
        f"unknown experiment {name!r}; available: single_projection, "
        "single_projection_offset, full_ct"
    )
