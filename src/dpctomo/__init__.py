"""Algebraic differential phase-contrast CT reconstruction.

Builds the differenced projection model (blockwise finite differences of
a parallel-beam Radon transform) as composable matrix-free operators and
solves it with a bidiagonalization-based Tikhonov iteration whose ridge
weight follows a secant update of the discrepancy.  Includes analytic
filtered back-projection baselines, simulation tooling, and a CLI.
"""

__version__ = "0.1.0"

from .diffops import make_diff
from .fbp import fbp_reconstruct
from .gbit import GBiTConfig, gbit_solve, lsqr_solve
from .linops import compose
from .projector import build_projector, standard_geometry
from .simlab import run_experiment

__all__ = [
    "build_projector",
    "standard_geometry",
    "make_diff",
    "compose",
    "GBiTConfig",
    "gbit_solve",
    "lsqr_solve",
    "fbp_reconstruct",
    "run_experiment",
]
