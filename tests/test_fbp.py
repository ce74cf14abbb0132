"""Per-angle Fourier filters and the analytic reconstruction baseline."""

import numpy as np
import pytest

from dpctomo.fbp import _filtered_blocks, _padded_length, fbp_reconstruct, filter_sinogram
from dpctomo.diffops import make_diff
from dpctomo.projector import Image, ProjectionGeometry, Sinogram, build_projector, project, uniform_angles
from dpctomo.simlab import PhantomSpec, make_phantom
from oracles import complex_filtered_blocks


def inscribed_mask(n):
    c = np.arange(n) + 0.5 - n / 2.0
    yy, xx = np.meshgrid(c, c, indexing="ij")
    return xx**2 + yy**2 <= (n / 2.0) ** 2


class TestFilterKindAndPadding:
    def test_padding_is_next_power_of_two_of_2k(self):
        assert _padded_length(100) == 256
        assert _padded_length(128) == 256

    def test_unknown_kind_rejected_before_any_work(self):
        sino = Sinogram(k=8, l=6, values=np.zeros(48))
        with pytest.raises(ValueError, match="sharpen"):
            filter_sinogram(sino, "sharpen")

        class Unused:
            def apply_transpose(self, y):
                raise AssertionError("back-projected with an unknown filter kind")

        geom = ProjectionGeometry(n_x=8, n_y=8, k=8, angles=uniform_angles(6))
        with pytest.raises(ValueError, match="sharpen"):
            fbp_reconstruct(sino, geom, "sharpen", projector=Unused())


class TestFilterSinogram:
    def test_zero_input_zero_output(self):
        sino = Sinogram(k=16, l=3, values=np.zeros(48))
        for kind in ("ramp", "dpc"):
            np.testing.assert_array_equal(filter_sinogram(sino, kind).values, 0.0)

    def test_linearity_and_blockwise_independence(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((1, 32))
        b = rng.standard_normal((1, 32))
        fa = _filtered_blocks(a, 1.0, "ramp")
        fb = _filtered_blocks(b, 1.0, "ramp")
        np.testing.assert_allclose(
            _filtered_blocks(2.0 * a - 3.0 * b, 1.0, "ramp"), 2.0 * fa - 3.0 * fb, atol=1e-10
        )
        stacked = _filtered_blocks(np.vstack([a, b]), 1.0, "ramp")
        np.testing.assert_allclose(stacked, np.vstack([fa, fb]), atol=1e-12)

    def test_ramp_zeroes_the_dc_bin(self):
        # the padded-window output of the ramp has exactly zero mean per
        # block; truncation back to k samples reintroduces a small mean,
        # which is why the check runs on the padded window
        rng = np.random.default_rng(1)
        blocks = rng.standard_normal((4, 32))
        padded = _filtered_blocks(blocks, 1.0, "ramp")
        np.testing.assert_allclose(padded.mean(axis=1), 0.0, atol=1e-10)
        constant = np.full((1, 32), 2.5)
        padded = _filtered_blocks(constant, 1.0, "ramp")
        np.testing.assert_allclose(padded.mean(axis=1), 0.0, atol=1e-10)

    def test_derivative_filter_inverts_central_difference(self):
        # the phase filter equals the ramp divided by the derivative
        # symbol, so differencing a smooth windowed profile and then
        # phase-filtering lands close to ramp-filtering the profile
        k = 256
        j = np.arange(k)
        q = np.sin(2 * np.pi * 5 * j / k) * np.sin(np.pi * j / (k - 1)) ** 2
        dq = make_diff("central", k, 1).apply(q)
        ramp_q = filter_sinogram(Sinogram(k=k, l=1, values=q), "ramp").values
        dpc_dq = filter_sinogram(Sinogram(k=k, l=1, values=dq), "dpc").values
        assert np.linalg.norm(dpc_dq - ramp_q) <= 0.05 * np.linalg.norm(ramp_q)

    @pytest.mark.parametrize("h", [1.0, 0.5])
    @pytest.mark.parametrize("kind", ["ramp", "dpc"])
    @pytest.mark.parametrize("k", [64, 255, 256, 257])
    def test_real_fft_matches_complex_fft_reference(self, k, kind, h):
        # odd and even k, and k at and just past a power of two, so the
        # padded length and its Nyquist bin change between cases
        blocks = np.random.default_rng(k).standard_normal((5, k))
        got = _filtered_blocks(blocks, h, kind)
        want = complex_filtered_blocks(blocks, h, kind)
        assert got.dtype == np.float64 and got.shape == want.shape
        scale = np.abs(want).max(axis=1)
        assert np.all(np.abs(got - want).max(axis=1) <= 1e-15 * scale)


class TestReconstruction:
    def test_zero_sinogram_zero_image(self):
        geom = ProjectionGeometry(n_x=8, n_y=8, k=8, angles=uniform_angles(6))
        sino = Sinogram(k=8, l=6, values=np.zeros(48))
        recon = fbp_reconstruct(sino, geom, "ramp", projector=build_projector(geom))
        np.testing.assert_array_equal(recon.values, 0.0)

    def test_absorption_reconstruction_quality(self):
        phantom = make_phantom(PhantomSpec(size=128))
        geom = ProjectionGeometry(n_x=128, n_y=128, k=128, angles=uniform_angles(180))
        projector = build_projector(geom)
        sino = project(projector, phantom)
        recon = fbp_reconstruct(sino, geom, "ramp", projector=projector)
        mask = inscribed_mask(128)
        diff = (recon.as_matrix() - phantom.as_matrix())[mask]
        assert np.linalg.norm(diff) < 0.25 * np.linalg.norm(phantom.as_matrix()[mask])

    def test_absorption_scale_holds_for_a_finer_detector_spacing(self):
        # two detectors per unit pixel: the back-projection scale pi h / l
        # keeps the image in the phantom's units
        n = 64
        phantom = make_phantom(PhantomSpec(size=n))
        geom = ProjectionGeometry(n_x=n, n_y=n, k=2 * n, angles=uniform_angles(90), h=0.5)
        projector = build_projector(geom)
        recon = fbp_reconstruct(project(projector, phantom), geom, "ramp", projector=projector)
        mask = inscribed_mask(n)
        diff = (recon.as_matrix() - phantom.as_matrix())[mask]
        assert np.linalg.norm(diff) < 0.25 * np.linalg.norm(phantom.as_matrix()[mask])

    def test_phase_reconstruction_consistent_with_absorption(self):
        # forward-differenced data carry a half-sample shift, so the
        # comparison runs on a denser detector grid (two samples per
        # pixel); the stencil data are scaled by 1/h to physical units
        n, l = 128, 180
        phantom = make_phantom(PhantomSpec(size=n))
        geom = ProjectionGeometry(n_x=n, n_y=n, k=2 * n, angles=uniform_angles(l), h=0.5)
        projector = build_projector(geom)
        sino = project(projector, phantom)
        absorption = fbp_reconstruct(sino, geom, "ramp", projector=projector)
        derivative = make_diff("forward", geom.k, geom.l).apply(sino.values) / geom.h
        dpc_sino = Sinogram(k=geom.k, l=geom.l, values=derivative, h=geom.h)
        phase = fbp_reconstruct(dpc_sino, geom, "dpc", projector=projector)
        a = absorption.values - absorption.values.mean()
        b = phase.values - phase.values.mean()
        assert np.linalg.norm(b - a) < 0.3 * np.linalg.norm(a)

    def test_layout_mismatch_rejected(self):
        # a detector spacing h other than the geometry's would be filtered
        # with one spacing and scaled with the other
        geom = ProjectionGeometry(n_x=8, n_y=8, k=8, angles=uniform_angles(6))
        projector = build_projector(geom)
        for sino in (
            Sinogram(k=4, l=6, values=np.zeros(24)),
            Sinogram(k=8, l=6, values=np.zeros(48), h=0.5),
        ):
            with pytest.raises(ValueError, match="does not match"):
                fbp_reconstruct(sino, geom, "ramp", projector=projector)

    def test_phase_reconstruction_is_mean_adjusted(self):
        rng = np.random.default_rng(3)
        geom = ProjectionGeometry(n_x=8, n_y=8, k=8, angles=uniform_angles(6))
        sino = Sinogram(k=8, l=6, values=rng.standard_normal(48))
        recon = fbp_reconstruct(sino, geom, "dpc", projector=build_projector(geom))
        assert abs(recon.values.mean()) <= 1e-12
