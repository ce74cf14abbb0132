"""Parallel-beam discrete Radon transform with intersection-length weights.

Geometry conventions: the pixel grid and the detector array are both
centered on the origin.  For angle ``theta`` the detector coordinate runs
along ``(cos theta, sin theta)`` and rays travel perpendicular to it in
direction ``(-sin theta, cos theta)``.  One ray passes through the center
of each detector cell, and its weight on a pixel is the exact length of
the ray segment inside that pixel (zero-length corner grazes get no
weight).

Images are stored column-major: the vector entry ``iy + ix * n_y`` holds
the pixel in grid column ``ix`` (x direction) and row ``iy`` (y
direction).  Sinograms are angle-major blocks of ``k`` detector values,
matching the block structure of the difference operators.

The weight matrix of a geometry is assembled once and stored sparse,
together with its transpose, so repeated applies are fast and the
accumulation order of the adjoint is fixed, making results reproducible
run to run.  Assembly is vectorized over the rays of each angle, and
blocks of angles are traced on a thread pool for geometries large enough
to pay for it.  The transpose is one CSR -> CSC conversion of the
stacked blocks.  Both stored matrices are the same, array for array,
whatever the number of workers.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .linops import LinearOperator, ShapeMismatchError, as_vector


def uniform_angles(l: int) -> np.ndarray:
    """l projection angles equally spaced over [0, pi)."""
    if int(l) < 1:
        raise ValueError(f"need at least one angle, got {l}")
    return np.arange(int(l)) * (np.pi / int(l))


@dataclass(frozen=True)
class ProjectionGeometry:
    """Grid, detector and angle layout defining the projector's shape."""

    n_x: int
    n_y: int
    k: int
    angles: np.ndarray
    pixel_size: float = 1.0
    h: float = 1.0

    def __post_init__(self):
        angles = np.atleast_1d(np.asarray(self.angles, dtype=np.float64)).copy()
        angles.setflags(write=False)
        object.__setattr__(self, "angles", angles)
        if self.n_x < 1 or self.n_y < 1:
            raise ValueError(f"grid must be at least 1x1, got {self.n_x}x{self.n_y}")
        if self.k < 1:
            raise ValueError(f"need at least one detector, got k={self.k}")
        if self.pixel_size <= 0 or self.h <= 0:
            raise ValueError("pixel_size and detector spacing h must be positive")
        if angles.size < 1:
            raise ValueError("need at least one projection angle")
        if np.any(angles < 0.0) or np.any(angles >= np.pi):
            raise ValueError("projection angles must lie in [0, pi)")

    @property
    def l(self) -> int:
        return int(self.angles.size)

    @property
    def m(self) -> int:
        return self.k * self.l

    @property
    def n(self) -> int:
        return self.n_x * self.n_y


def standard_geometry(n: int, num_angles: int, detectors: int | None = None) -> ProjectionGeometry:
    """Square-grid geometry with k = n detectors at unit spacing."""
    k = int(n) if detectors is None else int(detectors)
    return ProjectionGeometry(n_x=int(n), n_y=int(n), k=k, angles=uniform_angles(num_angles))


@dataclass(frozen=True, eq=False)
class Image:
    """Column-major raster of length n_x * n_y."""

    n_x: int
    n_y: int
    values: np.ndarray

    def __post_init__(self):
        values = as_vector(self.values, self.n_x * self.n_y, "image values")
        object.__setattr__(self, "values", values)

    def as_matrix(self) -> np.ndarray:
        """(n_y, n_x) array; entry [iy, ix] is grid column ix, row iy."""
        return self.values.reshape(self.n_y, self.n_x, order="F")

    @classmethod
    def from_matrix(cls, matrix) -> "Image":
        m = np.asarray(matrix, dtype=np.float64)
        if m.ndim != 2:
            raise ValueError(f"expected a 2-D array, got ndim={m.ndim}")
        return cls(n_x=m.shape[1], n_y=m.shape[0], values=m.ravel(order="F"))


@dataclass(frozen=True, eq=False)
class Sinogram:
    """Angle-major measurement vector: l blocks of k detector values."""

    k: int
    l: int
    values: np.ndarray
    h: float = 1.0

    def __post_init__(self):
        values = as_vector(self.values, self.k * self.l, "sinogram values")
        object.__setattr__(self, "values", values)

    def as_blocks(self) -> np.ndarray:
        """(l, k) array, one row per projection angle."""
        return self.values.reshape(self.l, self.k)


def _trace_angle(geom: ProjectionGeometry, theta: float, work: np.ndarray):
    """Sparse weights of one angle: (entries per detector, pixel index,
    length), detector by detector and along each ray in travel order.

    ``work`` is scratch space of shape (4, k * (n_x + n_y + 4)); reusing
    it across angles spares the page faults of fresh temporaries.
    """
    nx, ny, ps = geom.n_x, geom.n_y, geom.pixel_size
    x_min = -0.5 * nx * ps
    y_min = -0.5 * ny * ps
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    t = (np.arange(geom.k) - 0.5 * (geom.k - 1)) * geom.h
    p0x, p0y = t * cos_t, t * sin_t
    dx, dy = -sin_t, cos_t

    # one row per ray: its crossing parameters with each family of grid
    # planes it is not parallel to, then its entry and exit parameters
    xplanes = x_min + ps * np.arange(nx + 1)
    yplanes = y_min + ps * np.arange(ny + 1)
    width = (nx + 1) * (dx != 0.0) + (ny + 1) * (dy != 0.0) + 2

    def scratch(i, cols):
        return work[i, : geom.k * cols].reshape(geom.k, cols)

    alphas = scratch(0, width)
    enter, leave = np.full(geom.k, -np.inf), np.full(geom.k, np.inf)
    col = 0
    for p0, d, planes in ((p0x, dx, xplanes), (p0y, dy, yplanes)):
        if d != 0.0:
            a = alphas[:, col : col + planes.size]
            col += planes.size
            np.subtract(planes, p0[:, None], out=a)
            # a component near 1e-310 sends the parameters to +-inf, which
            # the clip to the entry and exit points below takes back
            with np.errstate(over="ignore"):
                a /= d
            lo, hi = np.minimum(a[:, 0], a[:, -1]), np.maximum(a[:, 0], a[:, -1])
        else:
            inside = (p0 >= planes[0]) & (p0 <= planes[-1])
            lo, hi = np.where(inside, -np.inf, np.inf), np.where(inside, np.inf, -np.inf)
        np.maximum(enter, lo, out=enter)
        np.minimum(leave, hi, out=leave)
    hit = leave > enter
    alphas[:, -2] = enter
    alphas[:, -1] = leave
    np.clip(alphas, enter[:, None], leave[:, None], out=alphas)
    alphas[~hit] = 0.0
    alphas.sort(axis=1)

    # ray direction is unit length, so parameter steps are lengths
    lengths = np.subtract(alphas[:, 1:], alphas[:, :-1], out=scratch(1, width - 1))
    mids = np.add(alphas[:, :-1], alphas[:, 1:], out=scratch(2, width - 1))
    mids *= 0.5

    def cell(p0, d, lo, out):
        # floor((p0 + mid * d - lo) / ps), the grid index along one axis
        np.multiply(mids, d, out=out)
        out += p0[:, None]
        out -= lo
        out /= ps
        return np.floor(out, out=out)

    ix = cell(p0x, dx, x_min, scratch(3, width - 1))
    iy = cell(p0y, dy, y_min, mids)
    valid = lengths > 1e-12 * ps
    valid &= hit[:, None]
    valid &= ix >= 0
    valid &= ix < nx
    valid &= iy >= 0
    valid &= iy < ny

    ix *= ny  # pixel index iy + ix * n_y, exact in float64
    ix += iy
    return np.count_nonzero(valid, axis=1), ix[valid].astype(np.int32), lengths[valid]


# Assembly traces blocks of angles on a thread pool once the geometry
# traces about _WORK_PER_WORKER crossing parameters per worker: numpy and
# scipy release the interpreter lock on arrays that large, while smaller
# geometries are bound by the interpreter and assemble serially.
_ANGLE_BLOCKS = 8
_WORK_PER_WORKER = 2_000_000


def _trace_block(geom: ProjectionGeometry, angles: np.ndarray) -> sp.csr_matrix:
    """CSR rows of a run of consecutive angles, in the canonical format."""
    work = np.empty((4, geom.k * (geom.n_x + geom.n_y + 4)))
    counts, cols, vals = [], [], []
    for theta in angles:
        per_ray, pix_idx, w = _trace_angle(geom, float(theta), work)
        counts.append(per_ray)
        cols.append(pix_idx)
        vals.append(w)
    indptr = np.concatenate(([0], np.cumsum(np.concatenate(counts))))
    block = sp.csr_matrix(
        (np.concatenate(vals), np.concatenate(cols), indptr),
        shape=(angles.size * geom.k, geom.n),
    )
    block.sum_duplicates()  # sorts each row by pixel, as one global tocsr() does
    return block


def _worker_count(geom: ProjectionGeometry) -> int:
    if hasattr(os, "sched_getaffinity"):  # the cores this process may use
        cores = len(os.sched_getaffinity(0))
    else:
        cores = os.cpu_count() or 1
    work = geom.l * geom.k * (geom.n_x + geom.n_y + 4)
    return max(1, min(cores, work // _WORK_PER_WORKER))


def _assemble_weights(geom: ProjectionGeometry, workers: int):
    """The weight matrix and its transpose, both CSR in canonical format.

    Threads trace the blocks of angles, which are stacked in row order.
    The transpose is one CSR -> CSC conversion, which lists each pixel's
    rays in ascending order.  Neither matrix depends on the number of
    workers.
    """
    angle_blocks = np.array_split(geom.angles, min(_ANGLE_BLOCKS, geom.l))
    with ThreadPoolExecutor(workers) as pool:  # starts no thread if unused
        run = pool.map if workers > 1 else map
        blocks = list(run(lambda angles: _trace_block(geom, angles), angle_blocks))
    weights = sp.vstack(blocks, format="csr")
    del blocks  # free the traced blocks before the transpose is built
    return weights, weights.T.tocsr()


class ParallelProjector(LinearOperator):
    """Discrete Radon transform R of a geometry, with exact adjoint."""

    def __init__(self, geometry: ProjectionGeometry):
        super().__init__(geometry.m, geometry.n)
        self.geometry = geometry
        self._weights, self._weights_t = _assemble_weights(geometry, _worker_count(geometry))

    def apply(self, x):
        return self._weights @ as_vector(x, self.cols, repr(self))

    def apply_transpose(self, y):
        return self._weights_t @ as_vector(y, self.rows, repr(self))


def build_projector(geom: ProjectionGeometry) -> ParallelProjector:
    """Assemble the projector for a geometry."""
    return ParallelProjector(geom)


def project(op: ParallelProjector, img: Image) -> Sinogram:
    """Forward projection R x as an angle-major sinogram."""
    geom = op.geometry
    if (img.n_x, img.n_y) != (geom.n_x, geom.n_y):
        raise ShapeMismatchError(
            f"image grid {img.n_x}x{img.n_y} does not match projector grid "
            f"{geom.n_x}x{geom.n_y}"
        )
    return Sinogram(k=geom.k, l=geom.l, values=op.apply(img.values), h=geom.h)

