"""Matrix-free linear operators with explicit adjoints.

Every operator is a real map between flat float64 vectors and exposes the
pair ``apply`` / ``apply_transpose``.  The package's operators are the
projector ``R``, the blockwise difference ``D`` and their compositions.
Operators are immutable after construction; compositions keep references
to their factors, so a product like ``compose(D, R)`` is applied factor by
factor and the product matrix is never materialized.
"""

from __future__ import annotations

import numpy as np


class ShapeMismatchError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


def as_vector(x, size: int, what: str = "input") -> np.ndarray:
    """Validate and convert ``x`` to a float64 vector of length ``size``."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1 or arr.shape[0] != size:
        raise ShapeMismatchError(
            f"{what}: expected a vector of length {size}, got shape {arr.shape}"
        )
    return arr


class LinearOperator:
    """A real ``rows``-by-``cols`` linear map with an explicit transpose map.

    Subclasses implement ``apply`` (forward) and ``apply_transpose``
    (adjoint).  Both must act on 1-D float64 vectors and must satisfy the
    adjoint identity ``<apply(x), y> == <x, apply_transpose(y)>`` up to
    rounding; the test suite checks this for every operator type.

    Instances hold no mutable state after construction, so a single
    operator may be applied concurrently from multiple threads.
    """

    def __init__(self, rows: int, cols: int):
        rows, cols = int(rows), int(cols)
        if rows < 1 or cols < 1:
            raise ValueError(f"operator shape must be positive, got ({rows}, {cols})")
        self._rows = rows
        self._cols = cols

    @property
    def rows(self) -> int:
        return self._rows

    @property
    def cols(self) -> int:
        return self._cols

    @property
    def shape(self) -> tuple[int, int]:
        return self._rows, self._cols

    def apply(self, x) -> np.ndarray:
        raise NotImplementedError

    def apply_transpose(self, y) -> np.ndarray:
        raise NotImplementedError

    def __repr__(self):
        return f"<{type(self).__name__} {self._rows}x{self._cols}>"


class ComposedOperator(LinearOperator):
    """Product ``left @ right``, applied factor by factor."""

    def __init__(self, left: LinearOperator, right: LinearOperator):
        if left.cols != right.rows:
            raise ShapeMismatchError(
                f"cannot compose {left!r} with {right!r}: "
                f"inner dimensions {left.cols} != {right.rows}"
            )
        super().__init__(left.rows, right.cols)
        self.left = left
        self.right = right

    def apply(self, x):
        return self.left.apply(self.right.apply(x))

    def apply_transpose(self, y):
        return self.right.apply_transpose(self.left.apply_transpose(y))


def compose(left: LinearOperator, right: LinearOperator) -> ComposedOperator:
    """Operator product with shape check; raises ShapeMismatchError on mismatch."""
    return ComposedOperator(left, right)

