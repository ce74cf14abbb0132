"""Phantoms, data generation, noise calibration, and the scripted studies."""

import numpy as np
import pytest

from dpctomo.diffops import make_diff
from dpctomo.gbit import GBiTConfig
from dpctomo.projector import ProjectionGeometry, build_projector, project
from dpctomo.simlab import (
    ModelErrorSpec,
    NoiseSpec,
    PhantomSpec,
    add_noise,
    generate_dpc_data,
    make_phantom,
    phase_retrieval_rhs,
    relative_error,
    run_experiment,
)


class TestPhantom:
    def test_value_range_and_corners(self):
        img = make_phantom(PhantomSpec(size=64))
        # intensity sums cancel only to rounding, hence the tiny slack
        assert img.values.min() >= -1e-15
        assert img.values.max() <= 1.0 + 1e-15
        m = img.as_matrix()
        assert m[0, 0] == 0.0 and m[0, -1] == 0.0 and m[-1, 0] == 0.0 and m[-1, -1] == 0.0

    def test_refinement_preserves_mass(self):
        coarse = make_phantom(PhantomSpec(size=128)).values.mean()
        fine = make_phantom(PhantomSpec(size=256)).values.mean()
        assert abs(coarse - fine) <= 0.01 * fine

    def test_modified_gray_levels(self):
        img = make_phantom(PhantomSpec(size=256))
        levels = set(np.unique(np.round(img.values, 12)))
        assert levels == {0.0, 0.1, 0.2, 0.3, 0.4, 1.0}

    def test_classic_variant_differs_in_histogram(self):
        modified = make_phantom(PhantomSpec(size=128)).values
        classic = make_phantom(PhantomSpec(variant="shepp_logan_classic", size=128)).values
        assert set(np.unique(np.round(modified, 12))) != set(np.unique(np.round(classic, 12)))

    def test_validation(self):
        with pytest.raises(ValueError):
            PhantomSpec(size=7)
        with pytest.raises(ValueError):
            PhantomSpec(variant="square")


class TestModelErrorMixing:
    def setup_method(self):
        self.geom = ProjectionGeometry(n_x=32, n_y=32, k=32, angles=[np.pi / 2.0])
        self.img = make_phantom(PhantomSpec(size=32))
        self.projector = build_projector(self.geom)
        self.y = project(self.projector, self.img).values
        self.dfy = make_diff("forward", 32, 1).apply(self.y)
        self.dcy = make_diff("central", 32, 1).apply(self.y)

    def test_zero_weight_is_exact_model_data(self):
        b_f, b_c = generate_dpc_data(self.img, self.geom, ModelErrorSpec(0.0), self.projector)
        np.testing.assert_array_equal(b_f.values, self.dfy)
        np.testing.assert_array_equal(b_c.values, self.dcy)

    def test_mixing_is_symmetric(self):
        # the two datasets mirror each other: their sum is weight-free and
        # their deviations from the unmixed data are exact negatives (so
        # they coincide in the half-weight limit)
        b_f, b_c = generate_dpc_data(self.img, self.geom, ModelErrorSpec(0.2), self.projector)
        scale = np.abs(self.dfy).max()
        np.testing.assert_allclose(
            b_f.values + b_c.values, self.dfy + self.dcy, atol=1e-12 * scale
        )
        np.testing.assert_allclose(
            b_f.values - self.dfy, -(b_c.values - self.dcy), atol=1e-12 * scale
        )

    def test_realized_model_error_in_sanity_band(self):
        geom = ProjectionGeometry(n_x=256, n_y=256, k=256, angles=[np.pi / 2.0])
        img = make_phantom(PhantomSpec(size=256))
        b_f, _ = generate_dpc_data(img, geom, ModelErrorSpec(0.2))
        dfy = make_diff("forward", 256, 1).apply(project(build_projector(geom), img).values)
        fraction = np.linalg.norm(b_f.values - dfy) / np.linalg.norm(dfy)
        assert 0.05 <= fraction <= 0.2

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            ModelErrorSpec(0.5)
        with pytest.raises(ValueError):
            ModelErrorSpec(-0.1)


class TestNoise:
    def test_zero_level_returns_clean_copy(self):
        b = np.array([1.0, 2.0, 3.0])
        out = add_noise(b, NoiseSpec(level=0.0, seed=1))
        np.testing.assert_array_equal(out, b)

    def test_realized_level_is_exact(self):
        rng = np.random.default_rng(0)
        b = rng.standard_normal(500)
        for offset in (0.0, 5.0):
            noisy = add_noise(b, NoiseSpec(level=0.10, offset=offset, seed=3))
            realized = np.linalg.norm(noisy - b) / np.linalg.norm(b)
            assert abs(realized - 0.10) <= 1e-12

    def test_seeded_determinism(self):
        b = np.linspace(-1.0, 1.0, 64)
        first = add_noise(b, NoiseSpec(level=0.10, seed=42))
        second = add_noise(b, NoiseSpec(level=0.10, seed=42))
        np.testing.assert_array_equal(first, second)
        third = add_noise(b, NoiseSpec(level=0.10, seed=43))
        assert not np.array_equal(first, third)

    def test_zero_clean_vector_rejected(self):
        with pytest.raises(ValueError):
            add_noise(np.zeros(8), NoiseSpec(level=0.1))
        with pytest.raises(ValueError):
            NoiseSpec(level=-0.1)


class TestPhaseRetrievalPath:
    def test_noiseless_roundtrip(self):
        rng = np.random.default_rng(5)
        y = rng.standard_normal(64 * 4)
        b = make_diff("forward", 64, 4).apply(y)
        recovered = phase_retrieval_rhs(b, 64, 4)
        assert np.linalg.norm(recovered - y) <= 1e-12 * np.linalg.norm(y)

    def test_zero_data(self):
        np.testing.assert_array_equal(phase_retrieval_rhs(np.zeros(12), 4, 3), np.zeros(12))

    def test_offset_noise_drifts_linearly(self):
        rng = np.random.default_rng(7)
        k, offset, level = 256, 5.0, 0.1
        y = np.cumsum(rng.standard_normal(k))
        b_clean = make_diff("forward", k, 1).apply(y)
        e = np.random.default_rng(11).standard_normal(k) + offset
        scale = level * np.linalg.norm(b_clean) / np.linalg.norm(e)
        b = b_clean + scale * e
        drift = phase_retrieval_rhs(b, k, 1) - phase_retrieval_rhs(b_clean, k, 1)
        slope = np.polyfit(np.arange(k), drift, 1)[0]
        expected = offset * level * np.linalg.norm(b_clean) / np.linalg.norm(e)
        assert abs(abs(slope) - expected) <= 0.25 * expected


class TestRelativeError:
    def test_identities(self):
        x = np.array([1.0, -2.0, 3.0])
        assert relative_error(x, x) == 0.0
        assert relative_error(np.zeros(3), x) == 1.0
        assert abs(relative_error(1.1 * x, x) - 0.1) <= 1e-12

    def test_zero_truth_rejected(self):
        with pytest.raises(ValueError):
            relative_error(np.ones(3), np.zeros(3))


class TestExperiments:
    def test_unknown_name(self):
        with pytest.raises(ValueError):
            run_experiment("full_3d")

    @pytest.mark.parametrize("name", ["single_projection", "full_ct"])
    def test_mixing_weight_out_of_range_rejected(self, name):
        with pytest.raises(ValueError, match="omega"):
            run_experiment(name, size=16, angles=4, omega=0.5)

    def test_noiseless_models_are_recovered(self):
        # exact data, no mixing: the unregularized solver inverts both
        # difference models to the projection profile
        result = run_experiment(
            "single_projection", size=64, omega=0.0, noise=0.0, seed=0, max_iter=80
        )
        for arm in ("noise:forward", "noise:central"):
            run = result.arms[arm]
            assert relative_error(run.lsqr_solution, run.truth) <= 1e-8

    def test_tomography_arms_show_semi_convergence(self):
        # the dip-then-rise of the unregularized error shows on the full
        # tomography problem; the single-projection system is too well
        # conditioned for a pronounced dip
        result = run_experiment("full_ct", size=48, angles=60, detectors=48, seed=1, max_iter=150)
        for arm in ("forward", "central"):
            errors = result.arms[arm].lsqr_report.rel_errors
            assert np.nanmin(errors) < 0.9 * errors[-1]

    def test_offset_arm_suppression(self):
        result = run_experiment("single_projection_offset", size=96, seed=2, max_iter=150)
        arm = result.arms["offset:forward"]
        assert np.abs(arm.gbit_solution).mean() < np.abs(arm.lsqr_solution).mean()

    def test_full_ct_model_ordering_single_seed(self):
        result = run_experiment(
            "full_ct", size=32, angles=48, detectors=32, seed=0, max_iter=120
        )
        assert result.arms["forward"].gbit_final_error < result.arms["central"].gbit_final_error
        assert result.arms["forward"].gbit_report.termination == "discrepancy_met"

    def test_solver_keywords_reach_the_solver_over_gbit_config_defaults(self):
        # unset keywords keep GBiTConfig's defaults, except the studies' cap
        params = run_experiment("single_projection", size=16, seed=0).params
        assert (params["eta"], params["lambda0"], params["maxcounter"], params["scheme"]) == (
            GBiTConfig.eta, GBiTConfig.lambda0, GBiTConfig.maxcounter, GBiTConfig.update_scheme
        )
        assert params["max_iter"] == 200
        result = run_experiment(
            "single_projection", size=16, seed=0, lambda0=2.5, scheme="alternative", max_iter=3
        )
        assert (result.params["lambda0"], result.params["scheme"]) == (2.5, "alternative")
        for arm in result.arms.values():
            assert arm.gbit_report.records[0].lam_used == 2.5
            assert arm.lsqr_report.iterations <= 3

    def test_experiments_are_reproducible(self):
        a = run_experiment("full_ct", size=24, angles=30, detectors=24, seed=5, max_iter=60)
        b = run_experiment("full_ct", size=24, angles=30, detectors=24, seed=5, max_iter=60)
        for key in a.arms:
            np.testing.assert_array_equal(a.arms[key].gbit_solution, b.arms[key].gbit_solution)
            np.testing.assert_array_equal(a.arms[key].b, b.arms[key].b)
