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

``OrbitProjector``, which every CLI command builds, stores the rays each
angle traces and expands them by pixel maps.  Ray k-1-i of an angle is
ray i on the grid turned a half, p -> n-1-p (below), so an angle keeps
only the ceil(k/2) rays it traces, unless it was traced whole (theta = 0
always is).  Under the orbit rule, a square grid, k = n detectors at unit
spacing and ``uniform_angles(l)`` with l even, the block of angle j + l/2
is block j on the grid turned a quarter, and the block of l/2 - j is
block j on the transposed grid, so angles 0 .. l/4 give all l blocks (46
of 180) under four maps; outside it every angle is traced, under the
identity map alone.  The r maps, and each followed by the half turn, make
2r.  The rule must leave out odd k - n at unit spacing, where a ray at
theta = 0 runs on a grid plane whose chord the tracer gives to one side,
so an expanded block would miss a whole chord.  The kept rays are traced
serially and stored in the order traced, never sorted or transposed:
458,121 entries at 128^2 x 180 and 1.83 M at 256^2 x 180 under the rule.
Both products run the stored rays on the 2r columns at once (the half
turn reverses a column, so it needs no table of its own), and the adjoint
adds each pixel's 2r terms in a fixed order: they repeat byte for byte
and match the stored transpose's within 7e-14 of their maximum under the
rule and 2e-15 outside it.

Each angle traces only its first ceil(k/2) rays: detector k-1-i sits at
-t_i and the grid planes are symmetric, so its ray holds ray i's lengths
at pixels n-1-p, bit for bit, unless a floor rounds onto a grid line; an
angle with a segment short enough for that traces all k rays.  The
stored transpose writes the other rays from the traced ones; the orbit
projector reads them through the half turn.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

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


# A kept segment of length L has its midpoint L * min(|sin|, |cos|) / 2 or
# more from every grid line, and cell coordinates err by a few ulps of the
# grid's half width (about 1e-13 at 256^2), so a floor can only go astray
# where L * min(|sin|, |cos|) is below
_MIRROR_MARGIN = 2e-9


def _traced_weights(geom: ProjectionGeometry, mirror: bool):
    """The weight matrix as CSR, each ray's entries in travel order or its
    reverse, a chord split by a grid plane as two entries, and the number
    of rays stored for each angle: k, or ceil(k/2) for an angle halved
    without ``mirror``.

    Each angle traces its first ceil(k/2) rays.  t_{k-1-i} = -t_i and the
    grid planes are symmetric, so ray k-1-i's crossing parameters, clip,
    sort, lengths and cell coordinates are ray i's negated, bit for bit:
    it holds ray i's lengths at pixels n-1-p, in reverse order.  Only a
    floor of a cell coordinate rounded onto a grid line can break this,
    inside a kept segment shorter than ``_MIRROR_MARGIN / min(|sin|,
    |cos|)``; an angle with one traces all k rays.  In the uniform 64^2
    to 256^2 geometries that is 0 and the float nearest pi/2, but a rule
    on theta alone would miss 1e-10, 1e-8 and pi/2 - 1e-9 with k = 7 on
    8^2 or k = 31 on 32^2.  ``mirror`` writes the other rays of a halved
    angle from the traced ones; without it only the traced rays are
    stored.

    The angles are traced into arrays of the ``k * (n_x + n_y + 3)``
    entries per angle that a tracing can emit, shrunk in place after.
    """
    most = geom.l * geom.k * (geom.n_x + geom.n_y + 3)
    indices, data = np.empty(most, dtype=np.int32), np.empty(most)
    work = np.empty((4, geom.k * (geom.n_x + geom.n_y + 4)))
    traced, mirrored, last = (geom.k + 1) // 2, geom.k // 2, geom.n - 1
    per_ray, rays, end = [], [], 0
    for theta in geom.angles:
        theta = float(theta)
        counts, pix_idx, w, shortest = _trace_angle(geom, theta, work, traced)
        axis = min(abs(math.sin(theta)), abs(math.cos(theta)))
        if shortest * axis < _MIRROR_MARGIN:  # no kept segment: inf * 0 is nan
            counts, pix_idx, w, _ = _trace_angle(geom, theta, work, geom.k)
        indices[end : end + w.size] = pix_idx
        data[end : end + w.size] = w
        per_ray.append(counts)
        end += w.size
        if mirror and counts.size < geom.k:
            # rays mirrored-1 .. 0, each reversed: one reversal of their entries
            size = int(counts[:mirrored].sum())
            indices[end : end + size] = last - pix_idx[:size][::-1]
            data[end : end + size] = w[:size][::-1]
            per_ray.append(counts[:mirrored][::-1])
            end += size
        rays.append(geom.k if mirror else counts.size)
    # no reference check: a profiler or tracer holds references to the arrays
    indices.resize(end, refcheck=False)
    data.resize(end, refcheck=False)
    indptr = np.concatenate(([0], np.cumsum(np.concatenate(per_ray))))
    weights = sp.csr_matrix((data, indices, indptr), shape=(indptr.size - 1, geom.n))
    return weights, np.array(rays)


def _assemble_weights(geom: ProjectionGeometry) -> sp.csr_matrix:
    """The transpose of the weight matrix, CSR in canonical format.

    The transpose, one CSR -> CSC counting sort, lists each pixel's rays
    in ascending order whatever the order within a ray.
    """
    weights_t = _traced_weights(geom, True)[0].T.tocsr()
    # a ray along a grid plane splits one chord into two entries; the sum
    # of two addends has the same bits in either order
    weights_t.sum_duplicates()
    return weights_t


class ParallelProjector(LinearOperator):
    """Discrete Radon transform R of a geometry, with exact adjoint."""

    def __init__(self, geometry: ProjectionGeometry):
        super().__init__(geometry.m, geometry.n)
        self.geometry = geometry
        self._weights_t = _assemble_weights(geometry)

    def apply(self, x):
        return self._weights_t.T @ as_vector(x, self.cols, repr(self))

    def apply_transpose(self, y):
        return self._weights_t @ as_vector(y, self.rows, repr(self))


def _orbit(geom: ProjectionGeometry) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """(representative angles, pixel maps, and each angle's representative
    and map): block a of W is ``W_rep[:, maps[map[a]]]``, where W_rep is
    the block of representative ``rep[a]``."""
    l, k = geom.l, geom.k
    if not (geom.n_x == geom.n_y == k and geom.h == 1.0 and l % 2 == 0
            and np.array_equal(geom.angles, uniform_angles(l))):
        return l, np.arange(geom.n)[None], np.arange(l), np.zeros(l, dtype=int)
    half, reps = l // 2, l // 4 + 1
    grid = np.arange(geom.n).reshape(k, k, order="F")  # [iy, ix] -> pixel index
    mirror, turn = grid.T.ravel(order="F"), np.rot90(grid, -1).ravel(order="F")
    maps = np.array([grid.ravel(order="F"), mirror, turn, mirror[turn]])
    a = np.arange(l)
    orbit = [a < reps, a <= half, a - half < reps]  # else the turn of a mirror
    rep = np.select(orbit, [a, half - a, a - half], l - a)
    return reps, maps, rep, np.select(orbit, [0, 1, 2], 3)


class OrbitProjector(LinearOperator):
    """R stored as the traced rays of its representative angles, ray
    major, with the pixel maps that expand them to every ray of every
    angle: the projector each CLI command builds (the layout rule in the
    module docstring)."""

    def __init__(self, geometry: ProjectionGeometry):
        super().__init__(geometry.m, geometry.n)
        self.geometry = geometry
        reps, maps, rep, col = _orbit(geometry)
        r, k = len(maps), geometry.k
        self._weights, rays = _traced_weights(
            replace(geometry, angles=geometry.angles[:reps]), False)
        # ray i of angle a is stored row i of its representative, or, past
        # the representative's traced rays, row k-1-i under map c + r: the
        # half turn p -> n-1-p after map c
        i = np.arange(k)
        mirrored = i >= rays[rep][:, None]
        rows = np.where(mirrored, k - 1 - i, i) + (np.cumsum(rays) - rays)[rep][:, None]
        self._gather = (rows * 2 * r + col[:, None] + r * mirrored).ravel()
        # both products gather, which is faster than a scatter: the forward
        # hands map c's column the image at the inverse map's pixels, and
        # the adjoint reads pixel p's term at row maps[c, p] of column c.
        # The half turn reverses a column, so maps c + r need no table
        self._pixels = np.argsort(maps, axis=1).T.copy()
        self._terms = maps * r + np.arange(r)[:, None]

    def apply(self, x):
        x = as_vector(x, self.cols, repr(self))
        columns = x[self._pixels]
        return (self._weights @ np.hstack((columns, columns[::-1]))).ravel()[self._gather]

    def apply_transpose(self, y):
        r = len(self._terms)
        blocks = np.zeros(self._weights.shape[0] * 2 * r)
        blocks[self._gather] = as_vector(y, self.rows, repr(self))
        products = self._weights.T @ blocks.reshape(self._weights.shape[0], -1)
        # map c + r's terms, turned back onto map c's rows, then the r
        # maps' terms of each pixel, added in the maps' order
        products = products[:, :r] + products[::-1, r:]
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

