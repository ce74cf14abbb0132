"""Phantoms, simulated measurement generation, and scripted experiments.

Data generation avoids the inverse crime by operator mixing: the clean
projection profile is differenced with both stencils and the two model
datasets are convex mixtures of the pair, so neither solver arm inverts
the exact operator that produced its data.  Noise is drawn from a seeded
standard-normal stream, optionally offset by a constant, and rescaled so
the realized relative perturbation equals the requested level exactly.

``model_system`` is each data model's one recipe, for the CLI and the
study alike: ``forward`` and ``central`` solve the composed
difference-of-projection system, and ``phase_retrieval`` undoes the
forward difference first and then inverts the plain projection operator.
``realized_epsilon`` is a model's discrepancy target.

The one experiment is the full tomography study, which solves each model
with an unregularized and a regularized arm.  It takes the grid size,
the angle count, the seed and the solvers' iteration cap; everything
else is fixed: the modified Shepp-Logan phantom, one detector per grid
column, mixing weight 0.2 and 10 % relative noise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from .diffops import invert_forward, make_diff
from .gbit import GBiTConfig, GBiTReport, gbit_solve, lsqr_solve
from .linops import LinearOperator, compose, scaled_norm
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
        if not 0.0 <= self.level < np.inf:
            raise ValueError(f"noise level must be finite and >= 0, got {self.level}")
        if not np.isfinite(self.offset):
            raise ValueError(f"noise offset must be finite, got {self.offset}")


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
    img: Image, geom: ProjectionGeometry, model_error: ModelErrorSpec, projector
):
    """Differenced projection data as a mixed pair (forward-model data,
    central-model data), both derived from one clean projection of the
    image so that neither equals its own model applied to the truth."""
    y = project(projector, img).values
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
    clean_norm = scaled_norm(b)
    if clean_norm == 0.0:
        raise ValueError("cannot scale noise relative to an all-zero measurement vector")
    rng = np.random.default_rng(spec.seed)
    e = rng.standard_normal(b.size) + spec.offset
    return b + spec.level * (clean_norm / float(np.linalg.norm(e))) * e


def phase_retrieval_rhs(b, k: int, l: int) -> np.ndarray:
    """Undo the blockwise forward difference, turning derivative data back
    into plain projection data (the first step of the two-step path).  An
    alias of ``invert_forward``, kept because ``benchmarks/workloads.py``
    calls it."""
    return invert_forward(b, k, l)


def model_system(model: str, b, projector) -> tuple[LinearOperator, np.ndarray, str]:
    """(operator, right-hand side, FBP filter kind) of a data model for
    the measured derivative data ``b``; see the module docstring."""
    k, l = projector.geometry.k, projector.geometry.l
    if model == "phase_retrieval":
        return projector, invert_forward(b, k, l), "ramp"
    return compose(make_diff(model, k, l), projector), b, "dpc"


def realized_epsilon(model: str, noisy, clean, projector) -> float:
    """The noise norm realized in a model's right-hand side."""
    rhs = model_system(model, noisy, projector)[1]
    return scaled_norm(rhs - model_system(model, clean, projector)[1])


def relative_error(x, x_true) -> float:
    x = np.asarray(x, dtype=np.float64).ravel()
    x_true = np.asarray(x_true, dtype=np.float64).ravel()
    truth_norm = float(np.linalg.norm(x_true))
    if truth_norm == 0.0:
        raise ValueError("relative error is undefined against a zero ground truth")
    return float(np.linalg.norm(x - x_true) / truth_norm)


# the study's mixing weight and relative noise level
_OMEGA, _NOISE = 0.2, 0.10


def derived_seed(master_seed: int, arm: str):
    # a fixed offset so the study draws from its own seeded stream
    if arm != "full_ct":
        raise KeyError(arm)
    return [int(master_seed), 53]


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
    arms: dict[str, ReconstructionArm]


def _run_full_ct(*, size, angles, seed, max_iter) -> dict[str, ReconstructionArm]:
    phantom = make_phantom(PhantomSpec(size=size))
    geom = standard_geometry(size, angles)
    projector = build_projector(geom)
    b_f, b_c = generate_dpc_data(phantom, geom, ModelErrorSpec(_OMEGA), projector)
    noise = NoiseSpec(level=_NOISE, seed=derived_seed(seed, "full_ct"))
    truth = phantom.values
    arms = {}
    # phase retrieval starts from the forward-model data
    for model, clean in (("forward", b_f), ("central", b_c), ("phase_retrieval", b_f)):
        noisy = add_noise(clean.values, noise)
        A, b, _ = model_system(model, noisy, projector)
        epsilon = realized_epsilon(model, noisy, clean.values, projector)
        lsqr = lsqr_solve(A, b, iters=max_iter, x_true=truth)
        gbit = gbit_solve(A, b, GBiTConfig(epsilon=epsilon, max_iter=max_iter, x_true=truth))
        arms[model] = ReconstructionArm(model, epsilon, b, truth, *lsqr, *gbit)
    return arms


def run_experiment(name: str, **params) -> ExperimentResult:
    """Run a named study; see the module docstring for the recipe.

    The one study is ``full_ct``, which combines mixing and noise over
    many angles.  It takes the keywords ``size``, ``angles``, ``seed`` and
    ``max_iter`` (the solvers' iteration cap); any other keyword raises
    ``TypeError``, and any other name ``ValueError``.
    """
    if name != "full_ct":
        raise ValueError(f"unknown experiment {name!r}; available: full_ct")
    return ExperimentResult(name=name, params=params, arms=_run_full_ct(**params))
