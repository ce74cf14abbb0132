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

The weight matrix W of a geometry is stored once.  ``ParallelProjector``,
the library's projector, stores the transpose: CSR, each pixel's rays in
ascending order.  Its adjoint gathers over those rays, and its forward
runs through scipy's CSC view of the same arrays, made per call, which
adds each ray's pixels in ascending order.

``OrbitProjector``, which every CLI command builds, traces a quarter of
the angles and permutes the rest.  The orbit rule: a square grid, k = n
detectors at unit spacing, and ``uniform_angles(l)`` with l even.  Then
the block of angle j + l/2 is block j on the grid turned a quarter, and
the block of l/2 - j is block j on the transposed grid, so angles
0 .. l/4 give all l blocks (46 of 180).  Their W is traced serially and
stored with sorted rows, never transposed.  Both products run the
representatives on four permuted columns at once, and the adjoint adds
each pixel's four terms in a fixed order: they repeat byte for byte and
match the stored transpose's within 4e-14 of their maximum.  Outside the
rule every angle is traced, under one identity map, and the products
keep the stored transpose's bits: both layouts add the same terms in the
same order, a chord split in two by a grid plane as two addends.  The
rule must leave out odd k - n at unit spacing, where a ray at theta = 0
runs on a grid plane whose chord the tracer gives to one side, so an
expanded block would miss a whole chord.  At 128^2 x 180, in fresh
processes on 2 cores, a build takes 0.030-0.043 s against 0.12-0.17 s
for the whole W, and forward/adjoint 2.8-3.8 / 2.1-3.0 ms against
3.4-5.9 / 4.6-6.8 ms; at 256^2 x 180, 0.13-0.16 against 0.34-0.46 s and
16-22 / 17-24 against 22-26 / 27-31 ms.

Large geometries trace one run of angles per worker on a thread pool,
into the arrays of W that the assembling thread allocates: workers
allocate nothing larger than one angle's temporaries, because glibc
keeps what a thread frees in that thread's malloc arena.

Each angle traces only its first ceil(k/2) rays: detector k-1-i sits at
-t_i and the grid planes are symmetric, so its ray holds ray i's lengths
at pixels n-1-p, bit for bit, unless a floor rounds onto a grid line; an
angle with a segment short enough for that traces all k rays.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import partial

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
    """Grid, detector and angle layout defining the projector's shape; the
    pixels are unit squares, in the units of the detector spacing ``h``."""

    n_x: int
    n_y: int
    k: int
    angles: np.ndarray
    h: float = 1.0

    def __post_init__(self):
        angles = np.atleast_1d(np.asarray(self.angles, dtype=np.float64)).copy()
        angles.setflags(write=False)
        object.__setattr__(self, "angles", angles)
        if self.n_x < 1 or self.n_y < 1:
            raise ValueError(f"grid must be at least 1x1, got {self.n_x}x{self.n_y}")
        if self.k < 1:
            raise ValueError(f"need at least one detector, got k={self.k}")
        if not 0 < self.h < np.inf:
            raise ValueError(f"detector spacing h must be positive and finite, got {self.h}")
        if angles.size < 1:
            raise ValueError("need at least one projection angle")
        if not np.all((angles >= 0.0) & (angles < np.pi)):  # NaN fails too
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


def standard_geometry(n: int, num_angles: int) -> ProjectionGeometry:
    """Square-grid geometry with k = n detectors at unit spacing."""
    return ProjectionGeometry(n_x=int(n), n_y=int(n), k=int(n), angles=uniform_angles(num_angles))


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


def _trace_angle(geom: ProjectionGeometry, theta: float, work: np.ndarray, rays: int):
    """Sparse weights of the first ``rays`` detectors of one angle:
    (entries per detector, pixel index, length, shortest kept length),
    detector by detector and along each ray in travel order.  The
    shortest kept length is taken before the grid bounds checks, over
    the segments longer than 1e-12; it is inf if there are none.

    ``work`` is scratch space of shape (4, k * (n_x + n_y + 4)); reusing
    it across angles spares the page faults of fresh temporaries.
    """
    nx, ny = geom.n_x, geom.n_y
    x_min, y_min = -0.5 * nx, -0.5 * ny
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    t = (np.arange(rays) - 0.5 * (geom.k - 1)) * geom.h
    p0x, p0y = t * cos_t, t * sin_t
    dx, dy = -sin_t, cos_t

    # one row per ray: its crossing parameters with each family of grid
    # planes it is not parallel to, then its entry and exit parameters
    xplanes = x_min + np.arange(nx + 1)
    yplanes = y_min + np.arange(ny + 1)
    width = (nx + 1) * (dx != 0.0) + (ny + 1) * (dy != 0.0) + 2

    def scratch(i, cols):
        return work[i, : rays * cols].reshape(rays, cols)

    alphas = scratch(0, width)
    enter, leave = np.full(rays, -np.inf), np.full(rays, np.inf)
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
        # floor(p0 + mid * d - lo), the grid index along one axis
        np.multiply(mids, d, out=out)
        out += p0[:, None]
        out -= lo
        return np.floor(out, out=out)

    ix = cell(p0x, dx, x_min, scratch(3, width - 1))
    iy = cell(p0y, dy, y_min, mids)
    valid = lengths > 1e-12
    valid &= hit[:, None]
    shortest = float(np.min(lengths, where=valid, initial=np.inf))
    valid &= ix >= 0
    valid &= ix < nx
    valid &= iy >= 0
    valid &= iy < ny

    ix *= ny  # pixel index iy + ix * n_y, exact in float64
    ix += iy
    return np.count_nonzero(valid, axis=1), ix[valid].astype(np.int32), lengths[valid], shortest


# Assembly traces one run of angles per worker on a thread pool once the
# geometry traces _WORK_PER_WORKER crossing parameters per worker: numpy
# and scipy release the interpreter lock on arrays that large.  Measured
# on 2 cores (best of 4 builds per fresh process, 1 and 2 workers
# alternating), a second worker saved no time up to 176²·180 (11.3 M
# parameters; 0.103-0.111 s serial against 0.098-0.116 s at 128²·180,
# 6.0 M), broke even at 192²·180 (13.4 M) and saved a fifth from
# 224²·180 (18.2 M; 0.38-0.40 against 0.29-0.34 s at 256²·180, 23.8 M).
# It costs memory at every size: the move-down of its entries touches the
# unused part of the first worker's worst-case region, so a 128²·180
# build's VmHWM grows by 56-58 MB against 42-44 MB serial.  Three workers
# would need 24 M, so on hosts with more cores this also caps 256²·180
# at 2.
_WORK_PER_WORKER = 8_000_000


# A kept segment of length L has its midpoint L * min(|sin|, |cos|) / 2 or
# more from every grid line, and cell coordinates err by a few ulps of the
# grid's half width (about 1e-13 at 256^2), so a floor can only go astray
# where L * min(|sin|, |cos|) is below
_MIRROR_MARGIN = 2e-9


def _trace_block(geom: ProjectionGeometry, angles: np.ndarray, indices, data) -> np.ndarray:
    """Trace a run of consecutive angles into the caller's arrays and
    return the number of entries of each ray.

    ``indices`` and ``data`` receive the entries ray after ray, each ray's
    in travel order or its reverse; they must hold the
    ``k * (n_x + n_y + 3)`` entries per angle that a tracing can emit.

    Each angle traces its first ceil(k/2) rays.  t_{k-1-i} = -t_i and the
    grid planes are symmetric, so ray k-1-i's crossing parameters, clip,
    sort, lengths and cell coordinates are ray i's negated, bit for bit:
    it holds ray i's lengths at pixels n-1-p, in reverse order.  Only a
    floor of a cell coordinate rounded onto a grid line can break this,
    inside a kept segment shorter than ``_MIRROR_MARGIN / min(|sin|,
    |cos|)``; an angle with one traces all k rays.  In the uniform 64^2
    to 256^2 geometries that is 0 and the float nearest pi/2, but a rule
    on theta alone would miss 1e-10, 1e-8 and pi/2 - 1e-9 with k = 7 on
    8^2 or k = 31 on 32^2.
    """
    work = np.empty((4, geom.k * (geom.n_x + geom.n_y + 4)))
    traced, mirrored, last = (geom.k + 1) // 2, geom.k // 2, geom.n - 1
    per_ray, end = [], 0
    for theta in angles:
        theta = float(theta)
        counts, pix_idx, w, shortest = _trace_angle(geom, theta, work, traced)
        axis = min(abs(math.sin(theta)), abs(math.cos(theta)))
        if shortest * axis < _MIRROR_MARGIN:  # no kept segment: inf * 0 is nan
            counts, pix_idx, w, _ = _trace_angle(geom, theta, work, geom.k)
        indices[end : end + w.size] = pix_idx
        data[end : end + w.size] = w
        per_ray.append(counts)
        end += w.size
        if counts.size < geom.k:
            # rays mirrored-1 .. 0, each reversed: one reversal of their entries
            size = int(counts[:mirrored].sum())
            indices[end : end + size] = last - pix_idx[:size][::-1]
            data[end : end + size] = w[:size][::-1]
            per_ray.append(counts[:mirrored][::-1])
            end += size
    return np.concatenate(per_ray)


def _worker_count(geom: ProjectionGeometry) -> int:
    if hasattr(os, "sched_getaffinity"):  # the cores this process may use
        cores = len(os.sched_getaffinity(0))
    else:
        cores = os.cpu_count() or 1
    work = geom.l * geom.k * (geom.n_x + geom.n_y + 4)
    return max(1, min(cores, work // _WORK_PER_WORKER))


def _traced_weights(geom: ProjectionGeometry, workers: int) -> sp.csr_matrix:
    """The weight matrix as CSR, each ray's entries in travel order or its
    reverse, a chord split by a grid plane as two entries.

    The filled parts of the traced runs are moved down into one run and
    the arrays shrunk in place to it.
    """
    angle_runs = np.array_split(geom.angles, min(workers, geom.l))
    most = geom.k * (geom.n_x + geom.n_y + 3)  # entries one angle can emit
    starts = most * np.cumsum([0] + [angles.size for angles in angle_runs])
    parts = list(zip(starts[:-1], starts[1:]))
    indices = np.empty(starts[-1], dtype=np.int32)
    data = np.empty(starts[-1])
    with ThreadPoolExecutor(workers) as pool:  # starts no thread if unused
        run = pool.map if workers > 1 else map
        counts = list(run(partial(_trace_block, geom), angle_runs,
                          [indices[a:b] for a, b in parts], [data[a:b] for a, b in parts]))
    end = 0  # the moves may overlap; numpy assigns as if through a copy
    for (start, _), per_ray in zip(parts, counts):
        filled = int(per_ray.sum())
        indices[end : end + filled] = indices[start : start + filled]
        data[end : end + filled] = data[start : start + filled]
        end += filled
    # in place.  The part views died with the pool; numpy's reference
    # check would also count what a profiler or tracer holds of the array
    # itself (a bound method for its call hook, the frame's locals)
    indices.resize(end, refcheck=False)
    data.resize(end, refcheck=False)
    indptr = np.concatenate(([0], np.cumsum(np.concatenate(counts))))
    return sp.csr_matrix((data, indices, indptr), shape=(geom.m, geom.n))


def _assemble_weights(geom: ProjectionGeometry, workers: int) -> sp.csr_matrix:
    """The transpose of the weight matrix, CSR in canonical format.

    The transpose, one CSR -> CSC counting sort, lists each pixel's rays
    in ascending order whatever the order within a ray, so it does not
    depend on the worker count.
    """
    weights_t = _traced_weights(geom, workers).T.tocsr()
    # a ray along a grid plane splits one chord into two entries; the sum
    # of two addends has the same bits in either order
    weights_t.sum_duplicates()
    return weights_t


class ParallelProjector(LinearOperator):
    """Discrete Radon transform R of a geometry, with exact adjoint."""

    def __init__(self, geometry: ProjectionGeometry):
        super().__init__(geometry.m, geometry.n)
        self.geometry = geometry
        self._weights_t = _assemble_weights(geometry, _worker_count(geometry))

    def apply(self, x):
        return self._weights_t.T @ as_vector(x, self.cols, repr(self))

    def apply_transpose(self, y):
        return self._weights_t @ as_vector(y, self.rows, repr(self))


def _orbit(geom: ProjectionGeometry) -> tuple[int, np.ndarray, np.ndarray]:
    """(representative angles, pixel maps, gather index) of a geometry:
    block a of W is ``W_rep[:, maps[c]]``, and its row i is entry
    ``gather[a * k + i] = (rep * k + i) * r + c`` of the representatives'
    ``(reps * k, r)`` product."""
    l, k = geom.l, geom.k
    if not (geom.n_x == geom.n_y == k and geom.h == 1.0 and l % 2 == 0
            and np.array_equal(geom.angles, uniform_angles(l))):
        return l, np.arange(geom.n)[None], np.arange(geom.m)
    half, reps = l // 2, l // 4 + 1
    grid = np.arange(geom.n).reshape(k, k, order="F")  # [iy, ix] -> pixel index
    mirror, turn = grid.T.ravel(order="F"), np.rot90(grid, -1).ravel(order="F")
    maps = np.array([grid.ravel(order="F"), mirror, turn, mirror[turn]])
    a = np.arange(l)
    orbit = [a < reps, a <= half, a - half < reps]  # else the turn of a mirror
    rep = np.select(orbit, [a, half - a, a - half], l - a)
    col = np.select(orbit, [0, 1, 2], 3)
    return reps, maps, ((rep[:, None] * k + np.arange(k)) * 4 + col[:, None]).ravel()


class OrbitProjector(LinearOperator):
    """R stored as the traced blocks of its representative angles, ray
    major, with the pixel maps that expand them to every angle: the
    projector each CLI command builds (the layout rule in the module
    docstring)."""

    def __init__(self, geometry: ProjectionGeometry):
        super().__init__(geometry.m, geometry.n)
        self.geometry = geometry
        reps, maps, self._gather = _orbit(geometry)
        self._weights = _traced_weights(replace(geometry, angles=geometry.angles[:reps]), 1)
        # sorts each ray's pixels and sums a split chord's two entries
        self._weights.sum_duplicates()
        # both products gather, which is faster than a scatter: the forward
        # hands map c's column the image at the inverse map's pixels, and
        # the adjoint reads pixel p's term at row maps[c, p] of column c
        self._pixels = np.argsort(maps, axis=1).T.copy()
        self._terms = maps * len(maps) + np.arange(len(maps))[:, None]

    def apply(self, x):
        x = as_vector(x, self.cols, repr(self))
        return (self._weights @ x[self._pixels]).ravel()[self._gather]

    def apply_transpose(self, y):
        blocks = np.zeros(self._weights.shape[0] * len(self._terms))
        blocks[self._gather] = as_vector(y, self.rows, repr(self))
        products = self._weights.T @ blocks.reshape(-1, len(self._terms))
        # the r maps' terms of each pixel, added in the maps' order
        return products.ravel()[self._terms].sum(axis=0)


def build_projector(geom: ProjectionGeometry) -> ParallelProjector:
    """Assemble the projector for a geometry."""
    return ParallelProjector(geom)


def project(op: ParallelProjector | OrbitProjector, img: Image) -> Sinogram:
    """Forward projection R x as an angle-major sinogram."""
    geom = op.geometry
    if (img.n_x, img.n_y) != (geom.n_x, geom.n_y):
        raise ShapeMismatchError(
            f"image grid {img.n_x}x{img.n_y} does not match projector grid "
            f"{geom.n_x}x{geom.n_y}"
        )
    return Sinogram(k=geom.k, l=geom.l, values=op.apply(img.values), h=geom.h)

