"""Ray-tracing projector: weights, adjoint, and geometric invariants.

The independent oracle is per-pixel line clipping (Liang-Barsky): for each
ray and each pixel box, clip the infinite ray against the box and take the
parametric overlap as the intersection length.  The production traversal
walks plane crossings instead, so agreement is a genuine cross-check.
"""

import cProfile
import os
import subprocess
import sys
import trace
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from dpctomo import projector
from dpctomo.diffops import make_diff
from dpctomo.linops import ShapeMismatchError, compose
from dpctomo.projector import (
    Image,
    OrbitProjector,
    ParallelProjector,
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
    """Dense weight matrix via per-pixel box clipping of unit pixels."""
    x_min, y_min = -0.5 * geom.n_x, -0.5 * geom.n_y
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
                        (p0[0], d[0], x_min + ix, x_min + ix + 1),
                        (p0[1], d[1], y_min + iy, y_min + iy + 1),
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
    """The weight matrix and its transpose the way a single global pass
    builds them: one COO matrix of every traced entry, converted to CSR,
    then transposed."""
    work = np.empty((4, geom.k * (geom.n_x + geom.n_y + 4)))
    rows, cols, vals = [], [], []
    for a, theta in enumerate(geom.angles):
        per_ray, pixels, lengths, _ = _trace_angle(geom, float(theta), work, geom.k)
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
    "k_ne_n": ProjectionGeometry(n_x=10, n_y=10, k=17, angles=uniform_angles(9)),
    "scaled_h": ProjectionGeometry(n_x=9, n_y=11, k=14, angles=uniform_angles(10), h=1.3),
    "one_angle": ProjectionGeometry(n_x=8, n_y=8, k=8, angles=[0.3]),
    "angles_not_a_multiple_of_blocks": standard_geometry(9, 13),
    "axis_angles": ProjectionGeometry(
        n_x=6, n_y=7, k=9, angles=[0.0, 0.4, np.pi / 2.0, 2.5, 3.0]
    ),
    # at pi/2 the rays run along y planes, where rounding splits one
    # pixel's chord in two: duplicate entries that assembly must sum
    "rays_on_grid_planes": ProjectionGeometry(n_x=9, n_y=9, k=16, angles=uniform_angles(4)),
    # the benchmark's study size: runs of 45 or 30 angles at 2 or 3
    # workers, one angle exactly pi/2
    "study_64": standard_geometry(64, 90),
    # near an axis, a cell coordinate can round onto a grid line on one
    # side of the detector reflection only: these angles must be traced
    # in full, though none is 0 or the float nearest pi/2
    "near_axis_8": ProjectionGeometry(
        n_x=8, n_y=8, k=7, angles=[1e-10, 1e-8, np.pi / 2.0 - 1e-9, 0.3]
    ),
    "near_axis_32": ProjectionGeometry(
        n_x=32, n_y=32, k=31, angles=[1e-10, 1e-8, np.pi / 2.0 - 1e-9, 0.3]
    ),
}


# n_x, n_y 2-12, k 2-14, 1-12 uniform angles, three spacings, 1-3
# workers: grid and detector parities put rays on grid planes, where a
# chord is traced as two entries, in about a tenth of these geometries
many_geometries = given(
    n_x=st.integers(2, 12), n_y=st.integers(2, 12), k=st.integers(2, 14),
    l=st.integers(1, 12), h=st.sampled_from([0.5, 1.0, 1.3]), workers=st.integers(1, 3),
)


class TestBlockedAssembly:
    """The threaded assembly, one run of angles per worker, stores the same
    transpose, array for array, as one global COO -> CSR pass, for any
    worker count, and the products through it are bit for bit those of the
    reference matrices."""

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("name", sorted(ASSEMBLY_GEOMETRIES))
    def test_matches_global_assembly_bit_for_bit(self, name, workers):
        geom = ASSEMBLY_GEOMETRIES[name]
        _, ref_t = reference_assembly(geom)
        assert_same_arrays(_assemble_weights(geom, workers), ref_t)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @many_geometries
    def test_matches_global_assembly_over_many_geometries(self, n_x, n_y, k, l, h, workers):
        # grid and detector parities put rays on grid planes, where the
        # duplicate entries are summed on the transpose, across the
        # boundaries of the workers' runs of angles
        geom = ProjectionGeometry(n_x=n_x, n_y=n_y, k=k, angles=uniform_angles(l), h=h)
        _, ref_t = reference_assembly(geom)
        assert_same_arrays(_assemble_weights(geom, workers), ref_t)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("name", sorted(ASSEMBLY_GEOMETRIES))
    def test_products_match_the_reference_matrices_bit_for_bit(
        self, name, workers, monkeypatch
    ):
        # the forward product runs through the CSC view of the stored
        # transpose and must add each ray's pixels in W's own row order
        geom = ASSEMBLY_GEOMETRIES[name]
        monkeypatch.setattr(projector, "_worker_count", lambda geom: workers)
        op = build_projector(geom)
        ref, ref_t = reference_assembly(geom)
        rng = np.random.default_rng(3)
        x, y = rng.standard_normal(geom.n), rng.standard_normal(geom.m)
        assert op.apply(x).tobytes() == (ref @ x).tobytes()
        assert op.apply_transpose(y).tobytes() == (ref_t @ y).tobytes()

    def test_projector_stores_the_reference_transpose(self):
        geom = standard_geometry(16, 30)
        _, ref_t = reference_assembly(geom)
        assert_same_arrays(build_projector(geom)._weights_t, ref_t)

    @pytest.mark.skipif(sys.platform != "linux", reason="glibc malloc arenas, ru_maxrss in KiB")
    def test_repeated_threaded_assembly_keeps_its_peak_memory(self):
        # Blocks traced into memory that the worker threads allocate stay
        # in the workers' malloc arenas after they are freed, so every
        # further assembly in the process would raise the peak (by half
        # the bytes of W and its transpose over three more at this size).
        script = """
import resource
from dpctomo.projector import _assemble_weights, standard_geometry
geom = standard_geometry(128, 180)
weights = _assemble_weights(geom, 2)
nbytes = sum(a.nbytes for a in (weights.data, weights.indices, weights.indptr))
first = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
for _ in range(3):
    weights = None  # free the previous matrix first
    weights = _assemble_weights(geom, 2)
growth = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - first
print(nbytes, 1024 * growth)
"""
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=300
        )
        assert result.returncode == 0, result.stderr
        nbytes, growth = map(int, result.stdout.split())
        assert growth < nbytes / 4, (growth, nbytes)

    @pytest.mark.skipif(sys.platform != "linux", reason="resident size from /proc/self/statm")
    def test_freed_threaded_assembly_leaves_little_resident(self):
        # Anything block-sized that the worker threads allocate stays in
        # their malloc arenas after the matrices are freed: blocks sorted
        # in copies left about 56 MB at this size and worker count, eight
        # blocks traced into the matrix's own arrays about 15 MB, and one
        # run of angles per worker about 6 MB.
        script = """
import resource
from dpctomo.projector import _assemble_weights, standard_geometry
def resident_mb():
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * resource.getpagesize() / 2**20
geom = standard_geometry(256, 180)
before = resident_mb()
weights = _assemble_weights(geom, 2)
weights = None
print(resident_mb() - before)
"""
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=300
        )
        assert result.returncode == 0, result.stderr
        assert float(result.stdout) < 10.0, result.stdout

    def test_assembles_under_a_profiler_and_a_tracer(self):
        # both hold references to the arrays being assembled (a bound
        # method for the call hook, the traced frame's locals), which
        # must not stop the arrays from shrinking in place
        geom = ASSEMBLY_GEOMETRIES["rays_on_grid_planes"]
        _, ref_t = reference_assembly(geom)
        profiled = cProfile.Profile().runcall(_assemble_weights, geom, 2)
        traced = trace.Trace(count=1, trace=0).runfunc(_assemble_weights, geom, 2)
        for weights_t in (profiled, traced):
            assert_same_arrays(weights_t, ref_t)

    def test_oversubscribed_pool_with_fast_switching(self):
        # more workers than cores and a short switch interval, so that the
        # workers tracing runs of angles interleave often; the pooled runs
        # must still come back, and be stacked, in angle order
        geom = standard_geometry(20, 24)
        _, ref_t = reference_assembly(geom)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            weights_t = _assemble_weights(geom, 2 * (os.cpu_count() or 1) + 1)
        finally:
            sys.setswitchinterval(interval)
        assert_same_arrays(weights_t, ref_t)


def in_orbit_rule(geom):
    """The orbit rule, stated apart from the package's own test of it."""
    uniform = np.arange(geom.l) * (np.pi / geom.l)
    return (geom.n_x == geom.n_y == geom.k and geom.h == 1.0 and geom.l % 2 == 0
            and geom.angles.tobytes() == uniform.tobytes())


def assert_orbit_products(geom, workers=None):
    """Outside the orbit rule the orbit projector traces every angle and
    its products have the stored transpose's bits; inside it traces
    angles 0 .. l/4, and its products and expanded blocks agree with the
    stored transpose's within rounding."""
    with mock.patch.object(projector, "_worker_count", lambda geom: workers or 1):
        stored_t, orbit = ParallelProjector(geom), OrbitProjector(geom)
    rule = in_orbit_rule(geom)
    assert orbit._weights.shape[0] == geom.k * (geom.l // 4 + 1 if rule else geom.l)
    rng = np.random.default_rng(5)
    x, y = rng.standard_normal(geom.n), rng.standard_normal(geom.m)
    products = [(orbit.apply(x), stored_t.apply(x)),
                (orbit.apply_transpose(y), stored_t.apply_transpose(y))]
    for actual, expected in products:
        if rule:
            assert np.abs(actual - expected).max() <= 1e-12 * np.abs(expected).max()
        else:
            assert actual.tobytes() == expected.tobytes()
    if rule:
        assert_adjoint(orbit, seed=7)
    if rule and geom.n <= 32**2:  # densifying 64^2 x 90 takes seconds
        expanded, traced = densify(orbit), densify(stored_t)
        for a in range(geom.l):
            rows = slice(a * geom.k, (a + 1) * geom.k)
            block = traced[rows]
            assert np.abs(expanded[rows] - block).max() <= 1e-12 * block.max(), a


class TestOrbitLayout:
    """The orbit projector stores W's representative angle blocks ray
    major: byte for byte the stored transpose's products outside the
    orbit rule, and the same numbers within rounding inside it."""

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("name", sorted(ASSEMBLY_GEOMETRIES))
    def test_products_match_the_stored_transpose(self, name, workers):
        assert_orbit_products(ASSEMBLY_GEOMETRIES[name], workers)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @many_geometries
    def test_products_match_over_many_geometries(self, n_x, n_y, k, l, h, workers):
        geom = ProjectionGeometry(n_x=n_x, n_y=n_y, k=k, angles=uniform_angles(l), h=h)
        assert_orbit_products(geom, workers)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(n=st.integers(2, 16), dk=st.sampled_from([0, -1, 1, 2]),
           h=st.sampled_from([0.5, 1.0, 1.3]), l=st.integers(1, 24),
           nudged=st.one_of(st.none(), st.integers(0, 23)), exact=st.booleans())
    def test_orbit_applies_exactly_under_its_rule(self, n, dk, h, l, nudged, exact):
        # square grids, where only k, h and the angles decide; at odd
        # k - n with h = 1 the rays at theta = 0 run on grid planes, and
        # an expansion there would miss a whole chord.  ``exact`` keeps
        # k = n, h = 1 and the uniform angles, so that half the draws
        # differ from the rule in l alone
        if exact:
            dk, h, nudged = 0, 1.0, None
        angles = uniform_angles(l)
        if nudged is not None:  # one angle a float off the uniform one
            angles[nudged % l] = np.nextafter(angles[nudged % l], np.pi)
        assert_orbit_products(
            ProjectionGeometry(n_x=n, n_y=n, k=max(n + dk, 1), angles=angles, h=h))

    def test_stores_the_representatives_reference_matrix(self):
        geom = standard_geometry(16, 30)  # angles 0 .. 7 represent all 30
        ref, _ = reference_assembly(replace(geom, angles=geom.angles[:8]))
        assert_same_arrays(OrbitProjector(geom)._weights, ref)

    @pytest.mark.skipif(sys.platform != "linux", reason="VmHWM from /proc/self/status")
    def test_cli_size_assembles_serially_without_a_transient(self):
        # the peak grows by what the projector holds, the quarter matrix
        # and its index tables, and no more: a transpose, or a second
        # worker's entries moved down over the unused part of the first
        # worker's worst-case region, would show here
        script = """
from dpctomo.projector import OrbitProjector, standard_geometry
def peak():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) * 1024 for line in fh if line.startswith("VmHWM"))
OrbitProjector(standard_geometry(16, 12))  # first calls, outside the measure
before = peak()
op = OrbitProjector(standard_geometry(128, 180))
growth = peak() - before
w = op._weights
held = sum(a.nbytes for a in (w.data, w.indices, w.indptr, op._pixels, op._terms, op._gather))
print(held, growth)
"""
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=300
        )
        assert result.returncode == 0, result.stderr
        held, growth = map(int, result.stdout.split())
        assert growth <= held + 5 * 2**20, (growth, held)


class TestDetectorReflection:
    """Ray k-1-i is ray i reflected through the origin: assembly traces
    half of each angle's rays and writes the other half from them."""

    @pytest.mark.parametrize("geom", [
        standard_geometry(16, 1),
        ProjectionGeometry(n_x=13, n_y=7, k=11, angles=[0.0]),
        ProjectionGeometry(n_x=9, n_y=11, k=14, angles=[0.0], h=1.3),
        ProjectionGeometry(n_x=8, n_y=8, k=16, angles=[0.0], h=0.5),
    ])
    @pytest.mark.parametrize("theta", [0.3, 1.1, 2.0, 3.0 * np.pi / 4.0])
    def test_mirrored_ray_holds_reflected_entries_bit_for_bit(self, geom, theta):
        work = np.empty((4, geom.k * (geom.n_x + geom.n_y + 4)))
        per_ray, pixels, lengths, _ = _trace_angle(geom, theta, work, geom.k)
        assert pixels.size > 0
        bounds = np.cumsum(per_ray)[:-1]
        rays = list(zip(np.split(pixels, bounds), np.split(lengths, bounds)))
        for i, (pixels, lengths) in enumerate(rays):
            mirror_pixels, mirror_lengths = rays[geom.k - 1 - i]
            assert np.array_equal(mirror_pixels, geom.n - 1 - pixels[::-1]), i
            assert mirror_lengths.tobytes() == lengths[::-1].tobytes(), i


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
        geom = ProjectionGeometry(n_x=8, n_y=8, k=12, angles=uniform_angles(10))
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
        geom = ProjectionGeometry(n_x=8, n_y=8, k=12, angles=uniform_angles(10))
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

    @pytest.mark.parametrize("n, l", [(16, 8), (17, 12), (64, 90), (64, 180)])
    def test_quarter_turn_and_mirror_symmetry(self, n, l):
        # On a square, centred geometry with k = n and an even l, angle
        # j + l/2 traces angle j on the grid turned a quarter clockwise,
        # and angle l/2 - j traces it on the transposed grid: one quarter
        # of the angle blocks determines the others.  The tolerance is
        # rounding: 1 degree off an axis, the crossings with the planes
        # the rays nearly follow lose digits (2.7e-13 of the block maximum
        # at 64^2 x 180 for the pair 89 and 179 degrees, 1.1e-13 at
        # 64^2 x 90, 1e-14 elsewhere).
        geom = standard_geometry(n, l)
        weights = build_projector(geom)._weights_t.T.tocsr()
        grid = np.arange(geom.n).reshape(n, n, order="F")  # [iy, ix] -> pixel index
        turned, transposed = np.rot90(grid, -1).ravel(order="F"), grid.T.ravel(order="F")

        def block(j):
            return weights[j * geom.k : (j + 1) * geom.k].toarray()

        half = l // 2
        pairs = [(j, j + half, turned) for j in range(half)]
        pairs += [(j, half - j, transposed) for j in range(half + 1)]
        for j, other, pixels in pairs:
            expected, actual = block(j)[:, pixels], block(other)
            np.testing.assert_array_equal(actual != 0.0, expected != 0.0)
            assert np.abs(actual - expected).max() <= 1e-12 * expected.max(), (j, other)

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
    side, and a detector spacing other than 1."""
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
        h=draw(spacing),
    )


def chord_lengths(geom, edge_tol=1e-9):
    """Analytic length of each ray inside the grid rectangle, angle-major;
    NaN for a ray within ``edge_tol`` of the rectangle's outer edge, whose
    traced length depends on rounding."""
    half_w, half_h = 0.5 * geom.n_x, 0.5 * geom.n_y
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
    @pytest.mark.parametrize("layout", [ParallelProjector, OrbitProjector])
    @PROPERTY
    @given(geom=geometries(), seed=st.integers(0, 2**32 - 1))
    def test_projector_adjoint_identity(self, layout, geom, seed):
        assert_adjoint(layout(geom), seed)

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
        with pytest.raises(ValueError, match="projection angles"):
            ProjectionGeometry(n_x=8, n_y=8, k=8, angles=[np.nan, 0.5])
        with pytest.raises(ValueError):
            ProjectionGeometry(n_x=4, n_y=4, k=0, angles=[0.0])
        with pytest.raises(ValueError):
            ProjectionGeometry(n_x=4, n_y=4, k=4, angles=[0.0], h=0.0)

    @pytest.mark.parametrize("h", [np.nan, np.inf, -1.0])
    def test_detector_spacing_must_be_positive_and_finite(self, h):
        with pytest.raises(ValueError, match="detector spacing h"):
            ProjectionGeometry(n_x=4, n_y=4, k=4, angles=[0.0], h=h)

    def test_project_shape_checks(self):
        geom = standard_geometry(4, 3)
        op = build_projector(geom)
        with pytest.raises(ShapeMismatchError):
            project(op, Image(n_x=5, n_y=5, values=np.zeros(25)))
