"""Ray-tracing projector: weights, adjoint, and geometric invariants.

The independent oracle is per-pixel line clipping (Liang-Barsky): for each
ray and each pixel box, clip the infinite ray against the box and take the
parametric overlap as the intersection length.  The production traversal
walks plane crossings instead, so agreement is a genuine cross-check.
"""

import os
import sys
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from dpctomo.diffops import make_diff
from dpctomo.linops import ShapeMismatchError, compose
from dpctomo.projector import (
    Image,
    ProjectionGeometry,
    Sinogram,
    _assemble_weights,
    _trace_angle,
    build_projector,
    project,
    standard_geometry,
    uniform_angles,
)
from dpctomo.simlab import PhantomSpec, make_phantom
from oracles import densify


def clipping_oracle(geom):
    """Dense weight matrix via per-pixel box clipping."""
    ps = geom.pixel_size
    x_min, y_min = -0.5 * geom.n_x * ps, -0.5 * geom.n_y * ps
    weights = np.zeros((geom.m, geom.n))
    t = (np.arange(geom.k) - 0.5 * (geom.k - 1)) * geom.h
    for a, theta in enumerate(geom.angles):
        d = (-np.sin(theta), np.cos(theta))
        for i in range(geom.k):
            p0 = (t[i] * np.cos(theta), t[i] * np.sin(theta))
            for ix in range(geom.n_x):
                for iy in range(geom.n_y):
                    lo, hi = -np.inf, np.inf
                    miss = False
                    for p, dd, blo, bhi in (
                        (p0[0], d[0], x_min + ix * ps, x_min + (ix + 1) * ps),
                        (p0[1], d[1], y_min + iy * ps, y_min + (iy + 1) * ps),
                    ):
                        if dd == 0.0:
                            if not blo <= p <= bhi:
                                miss = True
                        else:
                            t0, t1 = (blo - p) / dd, (bhi - p) / dd
                            if t0 > t1:
                                t0, t1 = t1, t0
                            lo, hi = max(lo, t0), min(hi, t1)
                    if not miss and hi > lo:
                        weights[a * geom.k + i, iy + ix * geom.n_y] = hi - lo
    return weights


def reference_assembly(geom):
    """Both stored matrices the way a single global pass builds them: one
    COO matrix of every traced entry, converted to CSR, then transposed."""
    work = np.empty((4, geom.k * (geom.n_x + geom.n_y + 4)))
    rows, cols, vals = [], [], []
    for a, theta in enumerate(geom.angles):
        per_ray, pixels, lengths = _trace_angle(geom, float(theta), work)
        rows.append(np.repeat(np.arange(geom.k, dtype=np.int64) + a * geom.k, per_ray))
        cols.append(pixels.astype(np.int64))
        vals.append(lengths)
    coo = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(geom.m, geom.n),
    )
    weights = coo.tocsr()
    return weights, weights.T.tocsr()


def assert_same_arrays(actual, expected):
    assert actual.shape == expected.shape
    assert actual.has_canonical_format and expected.has_canonical_format
    for name in ("data", "indices", "indptr"):
        a, e = getattr(actual, name), getattr(expected, name)
        assert a.dtype == e.dtype, name
        assert np.array_equal(a, e), name


ASSEMBLY_GEOMETRIES = {
    "square": standard_geometry(12, 20),
    "nx_ne_ny": ProjectionGeometry(n_x=13, n_y=7, k=13, angles=uniform_angles(11)),
    "k_ne_n": standard_geometry(10, 9, detectors=17),
    "scaled_pixels_and_detectors": ProjectionGeometry(
        n_x=9, n_y=11, k=14, angles=uniform_angles(10), pixel_size=0.7, h=1.3
    ),
    "one_angle": ProjectionGeometry(n_x=8, n_y=8, k=8, angles=[0.3]),
    "angles_not_a_multiple_of_blocks": standard_geometry(9, 13),
    "axis_angles": ProjectionGeometry(
        n_x=6, n_y=7, k=9, angles=[0.0, 0.4, np.pi / 2.0, 2.5, 3.0]
    ),
}


class TestBlockedAssembly:
    """The blocked, threaded assembly stores the same two matrices, array
    for array, as one global COO -> CSR pass, for any worker count."""

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("name", sorted(ASSEMBLY_GEOMETRIES))
    def test_matches_global_assembly_bit_for_bit(self, name, workers):
        geom = ASSEMBLY_GEOMETRIES[name]
        weights, weights_t = _assemble_weights(geom, workers)
        ref, ref_t = reference_assembly(geom)
        assert_same_arrays(weights, ref)
        assert_same_arrays(weights_t, ref_t)

    def test_projector_stores_the_reference_matrices(self):
        geom = standard_geometry(16, 30)
        op = build_projector(geom)
        ref, ref_t = reference_assembly(geom)
        assert_same_arrays(op._weights, ref)
        assert_same_arrays(op._weights_t, ref_t)

    def test_oversubscribed_pool_with_fast_switching(self):
        # more workers than cores and a short switch interval, so that the
        # workers tracing angle blocks interleave often; the pooled blocks
        # must still come back, and be stacked, in angle order
        geom = standard_geometry(20, 24)
        ref, ref_t = reference_assembly(geom)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            weights, weights_t = _assemble_weights(geom, 2 * (os.cpu_count() or 1) + 1)
        finally:
            sys.setswitchinterval(interval)
        assert_same_arrays(weights, ref)
        assert_same_arrays(weights_t, ref_t)


class TestSingleRays:
    def test_single_pixel_axis_aligned(self):
        geom = ProjectionGeometry(n_x=1, n_y=1, k=1, angles=[0.0])
        op = build_projector(geom)
        np.testing.assert_array_equal(op.apply([1.0]), [1.0])

    def test_two_by_two_columns(self):
        geom = ProjectionGeometry(n_x=2, n_y=2, k=2, angles=[0.0])
        op = build_projector(geom)
        np.testing.assert_array_equal(op.apply(np.ones(4)), [2.0, 2.0])
        np.testing.assert_allclose(densify(op), clipping_oracle(geom), atol=1e-12)

    def test_zero_image_zero_sinogram(self):
        geom = standard_geometry(6, 5)
        op = build_projector(geom)
        np.testing.assert_array_equal(op.apply(np.zeros(36)), np.zeros(30))


class TestAgainstOracles:
    def test_project_matches_densified_operator(self):
        rng = np.random.default_rng(5)
        geom = standard_geometry(8, 10, detectors=12)
        op = build_projector(geom)
        dense = densify(op)
        img = Image(n_x=8, n_y=8, values=rng.standard_normal(64))
        sino = project(op, img)
        np.testing.assert_allclose(sino.values, dense @ img.values, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_weights_match_clipping_oracle(self, seed):
        rng = np.random.default_rng(seed)
        geom = ProjectionGeometry(
            n_x=int(rng.integers(2, 6)),
            n_y=int(rng.integers(2, 6)),
            k=int(rng.integers(2, 7)),
            angles=rng.uniform(0.0, np.pi, size=3),
            h=float(rng.uniform(0.5, 1.5)),
        )
        np.testing.assert_allclose(
            densify(build_projector(geom)), clipping_oracle(geom), atol=1e-10
        )

    def test_adjoint_consistency(self):
        rng = np.random.default_rng(17)
        geom = standard_geometry(8, 10, detectors=12)
        op = build_projector(geom)
        for _ in range(10):
            x = rng.standard_normal(op.cols)
            y = rng.standard_normal(op.rows)
            lhs = np.dot(op.apply(x), y)
            rhs = np.dot(x, op.apply_transpose(y))
            assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)

    def test_tiny_direction_component_warns_nothing(self):
        # 1e-310 divides the plane offsets to +-inf; the clip to the entry
        # and exit points takes the parameters back
        geom = ProjectionGeometry(n_x=3, n_y=2, k=4, angles=[1e-310])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            op = build_projector(geom)
        assert_adjoint(op, seed=5)

    def test_quarter_turn_projects_row_sums(self):
        # an image constant along each grid row projects, at a quarter
        # turn, to the per-row sums scaled by the pixel traversal length
        n = 6
        rng = np.random.default_rng(2)
        rows = rng.standard_normal(n)
        matrix = np.tile(rows[:, None], (1, n))
        geom = ProjectionGeometry(n_x=n, n_y=n, k=n, angles=[np.pi / 2.0])
        op = build_projector(geom)
        sino = op.apply(Image.from_matrix(matrix).values)
        dense = densify(op)
        np.testing.assert_allclose(sino, dense @ Image.from_matrix(matrix).values, atol=1e-12)
        np.testing.assert_allclose(sino, rows * n, rtol=1e-12)


class TestGeometricInvariants:
    @pytest.mark.parametrize("theta,total", [(0.0, 7.0), (np.pi / 2.0, 5.0)])
    def test_axis_aligned_ray_sums(self, theta, total):
        # rays crossing the full grid accumulate exactly one grid height
        # (width) of intersection length
        geom = ProjectionGeometry(n_x=5, n_y=7, k=5 if theta == 0.0 else 7, angles=[theta])
        dense = densify(build_projector(geom))
        np.testing.assert_allclose(dense.sum(axis=1), total, rtol=0, atol=1e-12)

    def test_mass_conservation_across_angles(self):
        phantom = make_phantom(PhantomSpec(size=64))
        geom = standard_geometry(64, 24)
        sino = project(build_projector(geom), phantom)
        masses = sino.as_blocks().sum(axis=1)
        assert np.abs(masses - masses.mean()).max() <= 0.01 * masses.mean()

    def test_weights_nonnegative_and_missing_rays_zero(self):
        # detector array three times wider than the grid: outer rays miss
        geom = ProjectionGeometry(n_x=4, n_y=4, k=12, angles=uniform_angles(8), h=1.0)
        dense = densify(build_projector(geom))
        assert dense.min() >= 0.0
        row_sums = dense.sum(axis=1)
        assert (row_sums == 0.0).any()
        outer = row_sums.reshape(8, 12)[:, [0, -1]]
        assert np.all(outer == 0.0)


@st.composite
def geometries(draw):
    """Small geometries with a non-square grid, k unequal to either grid
    side, and pixel size and detector spacing other than 1."""
    n_x = draw(st.integers(1, 9))
    n_y = draw(st.integers(1, 9).filter(lambda v: v != n_x))
    k = draw(st.integers(2, 13).filter(lambda v: v not in (n_x, n_y)))
    # binary fractions put rays exactly on grid lines and on the edge
    spacing = st.one_of(
        st.sampled_from([0.5, 2.0]), st.floats(0.25, 2.5).filter(lambda v: v != 1.0)
    )
    angle = st.one_of(
        st.sampled_from([0.0, np.pi / 4.0, np.pi / 2.0, 3.0 * np.pi / 4.0]),
        st.floats(0.0, np.pi, exclude_max=True),
    )
    return ProjectionGeometry(
        n_x=n_x, n_y=n_y, k=k, angles=draw(st.lists(angle, min_size=1, max_size=5)),
        pixel_size=draw(spacing), h=draw(spacing),
    )


def chord_lengths(geom, edge_tol=1e-9):
    """Analytic length of each ray inside the grid rectangle, angle-major;
    NaN for a ray within ``edge_tol`` of the rectangle's outer edge, whose
    traced length depends on rounding."""
    half_w, half_h = 0.5 * geom.n_x * geom.pixel_size, 0.5 * geom.n_y * geom.pixel_size
    t = (np.arange(geom.k) - 0.5 * (geom.k - 1)) * geom.h
    out = []
    for theta in geom.angles:
        c, s = np.cos(theta), np.sin(theta)
        # the rectangle spans |t| <= reach along the detector direction
        reach = half_w * abs(c) + half_h * abs(s)
        for ti in t:
            lo, hi = -np.inf, np.inf
            for p, d, half in ((ti * c, -s, half_w), (ti * s, c, half_h)):
                if d == 0.0:
                    hi = hi if abs(p) <= half else -np.inf
                else:
                    a, b = sorted(((-half - p) / d, (half - p) / d))
                    lo, hi = max(lo, a), min(hi, b)
            grazing = abs(abs(ti) - reach) <= edge_tol
            out.append(np.nan if grazing else max(hi - lo, 0.0))
    return np.array(out)


def assert_adjoint(op, seed):
    rng = np.random.default_rng(seed)
    x, y = rng.standard_normal(op.cols), rng.standard_normal(op.rows)
    ax = op.apply(x)
    lhs, rhs = np.dot(ax, y), np.dot(x, op.apply_transpose(y))
    assert abs(lhs - rhs) <= 1e-12 * np.linalg.norm(ax) * np.linalg.norm(y)


# few examples, drawn the same way every run, keep the suite fast and steady
PROPERTY = settings(max_examples=50, deadline=None, derandomize=True, database=None)


class TestProperties:
    @PROPERTY
    @given(geom=geometries(), seed=st.integers(0, 2**32 - 1))
    def test_projector_adjoint_identity(self, geom, seed):
        assert_adjoint(build_projector(geom), seed)

    @pytest.mark.parametrize("scheme", ["forward", "central"])
    @PROPERTY
    @given(geom=geometries(), seed=st.integers(0, 2**32 - 1))
    def test_differenced_model_adjoint_identity(self, scheme, geom, seed):
        R = build_projector(geom)
        assert_adjoint(compose(make_diff(scheme, geom.k, geom.l), R), seed)

    @PROPERTY
    @given(geom=geometries())
    def test_rows_sum_to_chord_length(self, geom):
        row_sums = build_projector(geom).apply(np.ones(geom.n))
        expected = chord_lengths(geom)
        kept = ~np.isnan(expected)
        np.testing.assert_allclose(row_sums[kept], expected[kept], rtol=0, atol=1e-9)


class TestDataTypes:
    def test_image_matrix_roundtrip_column_major(self):
        matrix = np.arange(6.0).reshape(2, 3)
        img = Image.from_matrix(matrix)
        assert (img.n_x, img.n_y) == (3, 2)
        np.testing.assert_array_equal(img.values, matrix.ravel(order="F"))
        np.testing.assert_array_equal(img.as_matrix(), matrix)

    def test_sinogram_blocks(self):
        sino = Sinogram(k=3, l=2, values=np.arange(6.0))
        np.testing.assert_array_equal(sino.as_blocks(), [[0, 1, 2], [3, 4, 5]])

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            ProjectionGeometry(n_x=4, n_y=4, k=4, angles=[np.pi])
        with pytest.raises(ValueError):
            ProjectionGeometry(n_x=4, n_y=4, k=4, angles=[-0.1])
        with pytest.raises(ValueError):
            ProjectionGeometry(n_x=4, n_y=4, k=0, angles=[0.0])
        with pytest.raises(ValueError):
            ProjectionGeometry(n_x=4, n_y=4, k=4, angles=[0.0], h=0.0)

    def test_project_shape_checks(self):
        geom = standard_geometry(4, 3)
        op = build_projector(geom)
        with pytest.raises(ShapeMismatchError):
            project(op, Image(n_x=5, n_y=5, values=np.zeros(25)))
