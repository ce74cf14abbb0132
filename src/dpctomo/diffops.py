"""Blockwise finite-difference operators along the detector axis.

Differential phase-contrast measurements are the detector-direction
derivative of the projection data, so the sinogram (angle-major blocks of
``k`` detector samples) is differenced block by block: the operators are
Kronecker products of an ``l``-fold identity with a ``k``-by-``k`` stencil
matrix.  The stencils carry no 1/h or 1/(2h) factor; physical scaling by
the detector spacing is the caller's concern.

The forward stencil is upper bidiagonal (-1 diagonal, +1 superdiagonal)
and always invertible via back-substitution.  The central stencil is the
half-weighted zero-diagonal tridiagonal form and is invertible only for
even block size; for odd size its nullspace is spanned by the alternating
vector (1, 0, 1, ..., 0, 1).
"""

from __future__ import annotations

import numpy as np

from .linops import LinearOperator, as_vector

SCHEMES = ("forward", "central")


class DiffOperator(LinearOperator):
    """Finite-difference operator acting independently on each angle block."""

    def __init__(self, scheme: str, k: int, l: int):
        if scheme not in SCHEMES:
            raise ValueError(f"unknown difference scheme {scheme!r}; expected one of {SCHEMES}")
        self.scheme = scheme
        k, l = int(k), int(l)
        if k < 2:
            raise ValueError(f"block size k must be >= 2, got {k}")
        if l < 1:
            raise ValueError(f"number of blocks l must be >= 1, got {l}")
        super().__init__(k * l, k * l)
        self.k = k
        self.l = l

    def apply(self, x):
        blocks = as_vector(x, self.cols, repr(self)).reshape(self.l, self.k)
        out = np.empty_like(blocks)
        if self.scheme == "forward":
            out[:, :-1] = blocks[:, 1:] - blocks[:, :-1]
            out[:, -1] = -blocks[:, -1]
        else:
            out[:, 0] = 0.5 * blocks[:, 1]
            out[:, 1:-1] = 0.5 * (blocks[:, 2:] - blocks[:, :-2])
            out[:, -1] = -0.5 * blocks[:, -2]
        return out.ravel()

    def apply_transpose(self, y):
        blocks = as_vector(y, self.rows, repr(self)).reshape(self.l, self.k)
        if self.scheme == "central":
            # the central stencil is antisymmetric
            return -self.apply(y)
        out = np.empty_like(blocks)
        out[:, 0] = -blocks[:, 0]
        out[:, 1:] = blocks[:, :-1] - blocks[:, 1:]
        return out.ravel()


def make_diff(scheme: str, k: int, l: int) -> DiffOperator:
    """Blockwise difference operator of shape (k*l, k*l)."""
    return DiffOperator(scheme, k, l)


def invert_forward(b, k: int, l: int) -> np.ndarray:
    """Solve the blockwise forward-difference system exactly.

    Per block the inverse is a back-substitution: ``y_i = -sum(b[i:])``,
    so applying the forward stencil to the result reproduces ``b``.
    """
    blocks = as_vector(b, int(k) * int(l), "invert_forward input").reshape(int(l), int(k))
    return -np.cumsum(blocks[:, ::-1], axis=1)[:, ::-1].ravel()
