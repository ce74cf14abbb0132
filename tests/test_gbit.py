"""Bidiagonalization, projected solves, secant updates, and the full loop."""

import subprocess
import sys
import threading
import weakref
from dataclasses import replace

import numpy as np
import pytest

from dpctomo.diffops import make_diff
from dpctomo.gbit import (
    BidiagDecomposition,
    BidiagQR,
    GBiTConfig,
    gbit_solve,
    lsqr_solve,
    secant_update,
    solve_lsqr_subproblem,
    solve_tikhonov_subproblem,
)
from dpctomo.linops import compose
from dpctomo.projector import build_projector, standard_geometry
from dpctomo.simlab import (
    ModelErrorSpec,
    NoiseSpec,
    PhantomSpec,
    add_noise,
    generate_dpc_data,
    make_phantom,
    relative_error,
)
from oracles import MatrixOperator, dense_bidiagonal, givens_sweep


def decompose(matrix, rhs, steps):
    dec = BidiagDecomposition(MatrixOperator(matrix), rhs)
    for _ in range(steps):
        if not dec.step():
            break
    return dec


class TestBidiagDecomposition:
    def test_identity_breaks_down_after_one_step(self):
        dec = BidiagDecomposition(MatrixOperator(np.eye(3)), [1.0, 0.0, 0.0])
        assert dec.step() is False
        assert dec.breakdown == "beta"
        np.testing.assert_array_equal(dec.alphas, [1.0])
        np.testing.assert_array_equal(dec.betas, [0.0])
        np.testing.assert_array_equal(dec.V[:, 0], [1.0, 0.0, 0.0])

    def test_diagonal_two_one(self):
        dec = decompose(np.diag([2.0, 1.0]), [1.0, 0.0], steps=1)
        np.testing.assert_array_equal(dec.alphas, [2.0])
        np.testing.assert_array_equal(dec.betas, [0.0])
        np.testing.assert_array_equal(dec.V[:, 0], [1.0, 0.0])
        assert dec.breakdown == "beta"

    @pytest.mark.parametrize("seed", range(5))
    def test_relation_and_orthonormality(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((12, 7))
        dec = decompose(a, rng.standard_normal(12), steps=7)
        assert dec.k == 7
        b = dense_bidiagonal(dec.alphas, dec.betas)
        rel = np.linalg.norm(a @ dec.V - dec.U @ b) / np.linalg.norm(a)
        assert rel <= 1e-10
        assert np.abs(dec.V.T @ dec.V - np.eye(7)).max() <= 1e-10
        assert np.abs(dec.U.T @ dec.U - np.eye(8)).max() <= 1e-10

    def test_starts_from_normalized_residual(self):
        # the iteration starts from zero, so the initial residual is b
        rng = np.random.default_rng(9)
        a = rng.standard_normal((6, 4))
        b = rng.standard_normal(6)
        dec = BidiagDecomposition(MatrixOperator(a), b)
        np.testing.assert_allclose(dec.U[:, 0], b / np.linalg.norm(b), rtol=1e-14)
        np.testing.assert_allclose(dec.r0_norm, np.linalg.norm(b), rtol=1e-14)

    def test_capacity_keeps_the_bases_and_stepping_past_it_works(self):
        rng = np.random.default_rng(21)
        a = rng.standard_normal((12, 7))
        rhs = rng.standard_normal(12)
        dec = BidiagDecomposition(MatrixOperator(a), rhs, capacity=4)
        assert dec.step()
        v_first, u_first = dec.V, dec.U
        while dec.k < 4:
            assert dec.step()
        assert np.shares_memory(dec.V, v_first) and np.shares_memory(dec.U, u_first)
        while dec.k < 7 and dec.step():
            pass
        assert dec.k == 7 and not np.shares_memory(dec.V, v_first)
        ref = decompose(a, rhs, steps=7)
        for got, want in ((dec.alphas, ref.alphas), (dec.betas, ref.betas),
                          (dec.V, ref.V), (dec.U, ref.U)):
            np.testing.assert_array_equal(got, want)

    def test_gbit_solve_allocates_each_basis_once(self, monkeypatch):
        grown = []
        grow = BidiagDecomposition._grow

        def counting_grow(arr, needed):
            new = grow(arr, needed)
            if new is not arr:
                grown.append(needed)
            return new

        monkeypatch.setattr(BidiagDecomposition, "_grow", staticmethod(counting_grow))
        rng = np.random.default_rng(22)
        a = rng.standard_normal((60, 40))
        rhs = rng.standard_normal(60)
        _, report = lsqr_solve(MatrixOperator(a), rhs, iters=30)
        assert report.iterations == 30 and grown == []
        decompose(a, rhs, steps=30)  # without a capacity the bases double
        assert grown

    def test_tomography_bases_stay_orthonormal_over_200_steps(self):
        # criterion 1 checks orthogonality on small random matrices only;
        # this runs the study's forward-model system at desk scale
        geom = standard_geometry(64, 90)
        projector = build_projector(geom)
        phantom = make_phantom(PhantomSpec(size=64))
        clean, _ = generate_dpc_data(phantom, geom, ModelErrorSpec(0.2), projector)
        b = add_noise(clean.values, NoiseSpec(level=0.10, seed=[0, 53]))
        a = compose(make_diff("forward", geom.k, geom.l), projector)
        dec = BidiagDecomposition(a, b, capacity=200)
        while dec.k < 200:
            assert dec.step()
        for basis in (dec.U, dec.V):
            loss = np.abs(basis.T @ basis - np.eye(basis.shape[1])).max()
            assert loss <= 1e-10
        # criterion 3's identity for the final LSQR iterate
        qr = BidiagQR(dec.r0_norm)
        y, phi0 = solve_lsqr_subproblem(dec.alphas, dec.betas, dec.r0_norm, qr)
        residual = np.linalg.norm(b - a.apply(dec.V @ y))
        assert abs(residual - phi0) <= 1e-8 * np.linalg.norm(b)


class TestProjectedSolves:
    def test_two_by_one_closed_form(self):
        y, phi0 = solve_lsqr_subproblem([3.0], [4.0], 5.0, BidiagQR(5.0))
        np.testing.assert_allclose(y, [0.6], rtol=1e-15)
        assert abs(phi0 - 4.0) <= 1e-12

    def test_consistent_system_reaches_zero_residual(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((6, 6))
        x_true = rng.standard_normal(6)
        b = a @ x_true
        dec = decompose(a, b, steps=6)
        _, phi0 = solve_lsqr_subproblem(dec.alphas, dec.betas, dec.r0_norm, BidiagQR(dec.r0_norm))
        assert phi0 <= 1e-10 * np.linalg.norm(b)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_dense_least_squares(self, seed):
        rng = np.random.default_rng(40 + seed)
        alphas = rng.uniform(0.5, 2.0, size=5)
        betas = rng.uniform(0.5, 2.0, size=5)
        r0 = 3.7
        y, phi0 = solve_lsqr_subproblem(alphas, betas, r0, BidiagQR(r0))
        b = dense_bidiagonal(alphas, betas)
        c = np.zeros(6)
        c[0] = r0
        y_ref = np.linalg.lstsq(b, c, rcond=None)[0]
        assert np.linalg.norm(y - y_ref) <= 1e-10 * np.linalg.norm(y_ref)
        assert abs(phi0 - np.linalg.norm(c - b @ y_ref)) <= 1e-10

    @pytest.mark.parametrize("lam", [1e-4, 0.37, 12.0, 1e4])
    def test_ridge_solve_matches_dense_stacked_system(self, lam):
        rng = np.random.default_rng(77)
        alphas = rng.uniform(0.5, 2.0, size=6)
        betas = rng.uniform(0.5, 2.0, size=6)
        r0 = 1.9
        y, phi = solve_tikhonov_subproblem(alphas, betas, r0, lam)
        b = dense_bidiagonal(alphas, betas)
        stacked = np.vstack([b, np.sqrt(lam) * np.eye(6)])
        c = np.zeros(13)
        c[0] = r0
        y_ref = np.linalg.lstsq(stacked, c, rcond=None)[0]
        assert np.linalg.norm(y - y_ref) <= 1e-10 * max(np.linalg.norm(y_ref), 1e-30)
        assert abs(phi - np.linalg.norm(c[:7] - b @ y_ref)) <= 1e-10

    def test_zero_weight_equals_plain_solve(self):
        rng = np.random.default_rng(2)
        alphas = rng.uniform(0.5, 2.0, size=4)
        betas = rng.uniform(0.5, 2.0, size=4)
        y0, phi0 = solve_lsqr_subproblem(alphas, betas, 2.2, BidiagQR(2.2))
        y, phi = solve_tikhonov_subproblem(alphas, betas, 2.2, 0.0)
        np.testing.assert_array_equal(y, y0)
        assert phi == phi0

    def test_huge_weight_pins_solution_to_zero(self):
        rng = np.random.default_rng(3)
        alphas = rng.uniform(0.5, 2.0, size=4)
        betas = rng.uniform(0.5, 2.0, size=4)
        r0 = 5.0
        y, phi = solve_tikhonov_subproblem(alphas, betas, r0, 1e12)
        assert np.linalg.norm(y) <= 1e-6 * r0
        assert abs(phi - r0) <= 1e-4 * r0

    def test_full_space_ridge_matches_dense_normal_equations(self):
        rng = np.random.default_rng(13)
        a = rng.standard_normal((10, 6))
        b = rng.standard_normal(10)
        lam = 0.37
        config = GBiTConfig(update_scheme="fixed", lambda0=lam, max_iter=6)
        x, _ = gbit_solve(MatrixOperator(a), b, config)
        x_ref = np.linalg.solve(a.T @ a + lam * np.eye(6), a.T @ b)
        assert np.linalg.norm(x - x_ref) <= 1e-8 * np.linalg.norm(x_ref)


def coefficient_sequences(seed, k=120):
    """Diagonal and subdiagonal entries over two decades, with zero
    subdiagonal entries (breakdown) and one column whose diagonal and
    subdiagonal are both zero (a zero pivot).  Entries of like size are
    where ``np.hypot`` and ``math.hypot`` disagree most often."""
    rng = np.random.default_rng(seed)
    alphas = 10.0 ** rng.uniform(-1.0, 1.0, size=k)
    betas = 10.0 ** rng.uniform(-1.0, 1.0, size=k)
    betas[rng.integers(0, k, size=3)] = 0.0
    betas[-1] = 0.0
    j = int(rng.integers(1, k - 1))
    alphas[j] = betas[j] = 0.0
    return alphas, betas, float(10.0 ** rng.uniform(-2.0, 2.0))


def assert_same_bits(solved, swept):
    (y, phi), (y_ref, phi_ref) = solved, swept
    assert y.dtype == y_ref.dtype and y.tobytes() == y_ref.tobytes()
    assert np.float64(phi).tobytes() == np.float64(phi_ref).tobytes()


class TestRunningFactorization:
    """The running undamped QR and the damped solve, both on Python
    floats, against the numpy sweep of ``oracles.givens_sweep``."""

    @pytest.mark.parametrize("seed", range(6))
    def test_running_undamped_solve_matches_sweep(self, seed):
        alphas, betas, r0 = coefficient_sequences(seed)
        qr = BidiagQR(r0)
        for k in range(1, alphas.size + 1):
            swept = givens_sweep(alphas[:k], betas[:k], r0)
            # every third size is solved twice: a call that adds no column
            for _ in range(1 + (k % 3 == 0)):
                assert_same_bits(solve_lsqr_subproblem(alphas[:k], betas[:k], r0, qr), swept)
            # a factorization started afresh gives the same bits
            assert_same_bits(solve_lsqr_subproblem(alphas[:k], betas[:k], r0, BidiagQR(r0)), swept)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("lam", [0.0, 1e-6, 0.37, 12.0, 1e6])
    def test_damped_solve_matches_sweep(self, seed, lam):
        alphas, betas, r0 = coefficient_sequences(seed)
        for k in (1, 2, 7, 60, alphas.size):
            assert_same_bits(
                solve_tikhonov_subproblem(alphas[:k], betas[:k], r0, lam),
                givens_sweep(alphas[:k], betas[:k], r0, damp=float(np.sqrt(lam))),
            )

    def test_shorter_sequences_than_the_factorization_rejected(self):
        alphas, betas, r0 = coefficient_sequences(0)
        qr = BidiagQR(r0)
        solve_lsqr_subproblem(alphas[:5], betas[:5], r0, qr)
        with pytest.raises(ValueError, match="5 columns"):
            solve_lsqr_subproblem(alphas[:4], betas[:4], r0, qr)


class TestSecantUpdates:
    """The classic scheme aims at eta * epsilon, the alternative one at
    eta * phi0_prev; both reach ``secant_update`` as its ``target``."""

    def test_classic_formula(self):
        assert secant_update(2.0, 3.0, 5.0, 1.0 * 1.0) == pytest.approx(2.0)

    def test_classic_zero_numerator_clamps(self):
        lam = secant_update(2.0, 1.0, 5.0, 1.0 * 1.0)
        assert lam == pytest.approx(2e-12)

    def test_classic_fixed_point_when_target_met_exactly(self):
        # phi_lambda == eta * epsilon makes the ratio one
        assert secant_update(3.0, 0.5, 2.0, 1.0 * 2.0) == pytest.approx(3.0)

    def test_classic_flat_secant_keeps_weight(self):
        assert secant_update(4.0, 2.0, 2.0, 1.5 * 1.0) == 4.0

    def test_alternative_formula(self):
        # lambda_prev 4, phi0_prev 2, phi0 1.5, phi_lambda 2.5, eta 1
        lam = secant_update(4.0, 1.5, 2.5, 1.0 * 2.0)
        assert lam == pytest.approx(2.0)

    def test_alternative_flat_secant_keeps_weight(self):
        assert secant_update(4.0, 2.0, 2.0, 1.0 * 2.0) == 4.0

    def test_rejects_nonpositive_previous_weight(self):
        with pytest.raises(ValueError):
            secant_update(0.0, 1.0, 2.0, 1.0 * 1.0)


class TestGBiTSolve:
    def test_noiseless_consistent_system_meets_discrepancy(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((12, 6))
        b = a @ rng.standard_normal(6)
        eps = 1e-12 * np.linalg.norm(b)
        config = GBiTConfig(eta=1.01, epsilon=eps, max_iter=60)
        x, report = gbit_solve(MatrixOperator(a), b, config)
        assert report.termination == "discrepancy_met"
        assert report.records[-1].phi_lambda <= 1.01 * eps
        # the true residual equals the projected one up to rounding
        assert np.linalg.norm(b - a @ x) <= 1.01 * eps + 100 * np.finfo(float).eps * np.linalg.norm(b)

    def test_lambda_grows_then_settles(self):
        # ill-posed flavour so the unregularized residual stays above the
        # target for several iterations: the weight first inflates, then
        # falls back toward its plateau
        rng = np.random.default_rng(5)
        a = rng.standard_normal((60, 30))
        u, s, vt = np.linalg.svd(a, full_matrices=False)
        a = (u * (s * np.exp(-np.arange(30) / 4.0))) @ vt
        x_true = vt[:4].sum(axis=0)
        b_clean = a @ x_true
        e = rng.standard_normal(60)
        b = b_clean + 0.05 * np.linalg.norm(b_clean) / np.linalg.norm(e) * e
        eps = np.linalg.norm(b - b_clean)
        config = GBiTConfig(eta=1.01, epsilon=eps, max_iter=30, maxcounter=30)
        _, report = gbit_solve(MatrixOperator(a), b, config)
        lams = np.array([r.lam for r in report.records])
        peak = int(np.argmax(lams))
        phi0s = np.array([r.phi0 for r in report.records])
        above_target = phi0s > 1.01 * eps
        assert above_target[0] and above_target.sum() >= 2
        # inflates far above its starting value while the unregularized
        # residual exceeds the target, then falls back and levels off
        assert lams[peak] > 100.0 * config.lambda0
        assert above_target[peak]
        assert lams[-1] < lams[peak]
        plateau = lams[-5:]
        assert plateau.max() - plateau.min() <= 0.05 * plateau.mean()
        assert np.all(lams > 0.0)
        assert np.isfinite(phi0s).all() and np.isfinite([r.phi_lambda for r in report.records]).all()

    def test_projected_residual_equals_true_residual(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal((40, 25))
        x_true = rng.standard_normal(25)
        b = a @ x_true + 0.1 * rng.standard_normal(40)
        eps = 0.1 * np.sqrt(40)
        config = GBiTConfig(
            eta=1.01, epsilon=eps, max_iter=25, maxcounter=25, track_residual=True
        )
        _, report = gbit_solve(MatrixOperator(a), b, config)
        norm_b = np.linalg.norm(b)
        for rec in report.records:
            assert abs(rec.residual - rec.phi_lambda) / norm_b <= 1e-8

    def test_trace_names_the_weight_each_iterate_used(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((40, 20))
        u, s, vt = np.linalg.svd(a, full_matrices=False)
        a = (u * (s * np.exp(-np.arange(20) / 4.0))) @ vt
        b_clean = a @ vt[:3].sum(axis=0)
        e = rng.standard_normal(40)
        b = b_clean + 0.05 * np.linalg.norm(b_clean) / np.linalg.norm(e) * e
        config = GBiTConfig(eta=1.01, epsilon=np.linalg.norm(b - b_clean), lambda0=0.5)
        x, report = gbit_solve(MatrixOperator(a), b, config)
        records = report.records
        assert report.termination == "discrepancy_met" and len(records) >= 3
        assert records[0].lam_used == config.lambda0
        for prev, rec in zip(records, records[1:]):
            assert rec.lam_used == prev.lam
        # the returned iterate is the ridge solve at the last weight used
        rerun = GBiTConfig(
            update_scheme="fixed", lambda0=records[-1].lam_used, max_iter=len(records)
        )
        x_fixed, _ = gbit_solve(MatrixOperator(a), b, rerun)
        np.testing.assert_array_equal(x_fixed, x)
        _, rep_lsqr = lsqr_solve(MatrixOperator(a), b, iters=4)
        assert [r.lam_used for r in rep_lsqr.records] == [0.0] * 4

    def test_zero_weight_run_equals_lsqr_bit_for_bit(self):
        rng = np.random.default_rng(12)
        a = rng.standard_normal((20, 12))
        b = rng.standard_normal(20)
        config = GBiTConfig(update_scheme="fixed", lambda0=0.0, max_iter=10)
        x_fixed, rep_fixed = gbit_solve(MatrixOperator(a), b, config)
        x_lsqr, rep_lsqr = lsqr_solve(MatrixOperator(a), b, iters=10)
        np.testing.assert_array_equal(x_fixed, x_lsqr)
        assert [r.phi0 for r in rep_fixed.records] == [r.phi0 for r in rep_lsqr.records]

    def test_breakdown_before_discrepancy_returns_best_iterate(self):
        # an exactly invertible 2x2 system with an unreachable target
        a = np.diag([2.0, 1.0])
        b = np.array([1.0, 1.0])
        config = GBiTConfig(
            update_scheme="fixed", lambda0=0.0, max_iter=10
        )
        x, report = gbit_solve(MatrixOperator(a), b, config)
        assert report.termination == "breakdown"
        np.testing.assert_allclose(x, [0.5, 1.0], rtol=1e-12)

    def test_classic_requires_noise_estimate(self):
        with pytest.raises(ValueError, match="epsilon"):
            GBiTConfig(update_scheme="classic", epsilon=None)

    def test_alternative_scheme_runs_without_noise_estimate(self):
        rng = np.random.default_rng(31)
        a = rng.standard_normal((30, 15))
        x_true = rng.standard_normal(15)
        b_clean = a @ x_true
        e = rng.standard_normal(30)
        b = b_clean + 0.10 * np.linalg.norm(b_clean) / np.linalg.norm(e) * e
        config = GBiTConfig(update_scheme="alternative", eta=1.01, max_iter=30)
        x, report = gbit_solve(MatrixOperator(a), b, config)
        assert report.termination in ("discrepancy_met", "max_iter")
        assert all(r.lam > 0.0 for r in report.records)

    @pytest.mark.parametrize("maxcounter", [1, 3])
    @pytest.mark.parametrize("scheme", ["classic", "alternative"])
    def test_each_scheme_replays_from_its_trace(self, scheme, maxcounter):
        # every record's next weight is the secant step toward the scheme's
        # target, bit for bit, and the run stops on the (maxcounter + 1)-th
        # record whose regularized residual passes the scheme's threshold;
        # on these data an alternative run passes one record only by the
        # threshold's 1.01 margin over the target
        rng = np.random.default_rng(6)
        a = rng.standard_normal((60, 30))
        u, s, vt = np.linalg.svd(a, full_matrices=False)
        a = (u * (s * np.exp(-np.arange(30) / 4.0))) @ vt
        b_clean = a @ vt[:4].sum(axis=0)
        e = rng.standard_normal(60)
        b = b_clean + 0.05 * np.linalg.norm(b_clean) / np.linalg.norm(e) * e
        eps = np.linalg.norm(b - b_clean) if scheme == "classic" else None
        config = GBiTConfig(
            epsilon=eps, lambda0=0.1, max_iter=60, maxcounter=maxcounter, update_scheme=scheme
        )
        _, report = gbit_solve(MatrixOperator(a), b, config)
        phi0_prev = np.linalg.norm(b)
        passed, by_margin = [], []
        for rec in report.records:
            if scheme == "classic":
                target = stop = config.eta * eps
            else:
                target, stop = config.eta * phi0_prev, 1.01 * config.eta * phi0_prev
            assert rec.lam == secant_update(rec.lam_used, rec.phi0, rec.phi_lambda, target)
            passed.append(rec.phi_lambda < stop)
            by_margin.append(target <= rec.phi_lambda < stop)
            phi0_prev = rec.phi0
        assert report.termination == "discrepancy_met"
        assert passed[-1] and sum(passed) == maxcounter + 1
        assert not all(passed)
        assert any(by_margin) == (scheme == "alternative")

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GBiTConfig(eta=0.9, epsilon=1.0)
        with pytest.raises(ValueError):
            GBiTConfig(epsilon=1.0, lambda0=0.0)
        with pytest.raises(ValueError):
            GBiTConfig(epsilon=1.0, max_iter=0)
        with pytest.raises(ValueError):
            GBiTConfig(epsilon=1.0, maxcounter=0)
        with pytest.raises(ValueError):
            GBiTConfig(epsilon=1.0, update_scheme="bogus")

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("name", ["eta", "lambda0", "epsilon"])
    @pytest.mark.parametrize("scheme", ["classic", "alternative", "fixed"])
    def test_nonfinite_settings_rejected(self, scheme, name, value):
        settings = {"epsilon": 1.0, "update_scheme": scheme, name: value}
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            GBiTConfig(**settings)

    @pytest.mark.parametrize(
        "matrix,rhs,cause,termination,iterations",
        [
            (np.eye(3), [0.0, 0.0, 0.0], "zero_residual", "discrepancy_met", 0),
            # A^T u_2 lies in span(v_1): no second right-basis column
            ([[1.0, 0.0], [0.0, 0.0]], [1.0, 1.0], "alpha", "breakdown", 1),
            # A v_1 lies in span(u_1): the subdiagonal entry is zero
            (np.eye(3), [1.0, 0.0, 0.0], "beta", "breakdown", 1),
            (np.arange(1.0, 13.0).reshape(4, 3) ** 2, [1.0, -1.0, 2.0, 0.5], None,
             "max_iter", 2),
        ],
        ids=["zero_residual", "alpha", "beta", "none"],
    )
    def test_report_names_the_breakdown_cause(self, matrix, rhs, cause, termination, iterations):
        config = GBiTConfig(update_scheme="fixed", lambda0=0.0, max_iter=2)
        _, report = gbit_solve(MatrixOperator(np.asarray(matrix)), rhs, config)
        assert report.breakdown == cause
        assert report.termination == termination
        assert report.iterations == iterations

    # 1e300 is finite, but the vector's norm overflows
    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1e300])
    @pytest.mark.parametrize("where", ["right-hand side b", "ground truth x_true"])
    def test_nonfinite_data_rejected_naming_it(self, where, bad):
        vectors = {"b": np.ones(4), "x_true": np.ones(3)}
        vectors[where.split()[-1]][1] = bad
        b = vectors["b"]
        config = GBiTConfig(epsilon=1.0, x_true=vectors["x_true"])
        with pytest.raises(ValueError, match=where):
            gbit_solve(MatrixOperator(np.ones((4, 3))), b, config)

    def test_zero_residual_returns_initial_guess(self):
        # the initial guess is zero, whose residual vanishes for b = 0
        config = GBiTConfig(epsilon=1.0)
        x, report = gbit_solve(MatrixOperator(np.ones((4, 3))), np.zeros(4), config)
        np.testing.assert_array_equal(x, np.zeros(3))
        assert report.termination == "discrepancy_met"
        assert report.iterations == 0


class TestLSQR:
    def test_consistent_dense_system(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((6, 4))
        x_true = rng.standard_normal(4)
        b = a @ x_true
        x, report = lsqr_solve(MatrixOperator(a), b, iters=10)
        assert report.records[3].phi0 <= 1e-8 * np.linalg.norm(b)
        x_ref = np.linalg.lstsq(a, b, rcond=None)[0]
        assert np.linalg.norm(x - x_ref) <= 1e-8 * np.linalg.norm(x_ref)

    def test_identity_recovers_in_one_iteration(self):
        b = np.array([1.0, 2.0, 3.0, 4.0])
        x, report = lsqr_solve(MatrixOperator(np.eye(4)), b, iters=5)
        np.testing.assert_allclose(x, b, rtol=1e-14)
        assert report.iterations == 1
        assert report.termination == "breakdown"

    def test_semi_convergence_on_noisy_problem(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((50, 40))
        # smooth ill-posed flavour: damp the spectrum
        u, s, vt = np.linalg.svd(a, full_matrices=False)
        a = (u * (s * np.exp(-np.arange(40) / 6.0))) @ vt
        x_true = vt[0] + 0.5 * vt[1]
        b_clean = a @ x_true
        e = rng.standard_normal(50)
        b = b_clean + 0.05 * np.linalg.norm(b_clean) / np.linalg.norm(e) * e
        _, report = lsqr_solve(MatrixOperator(a), b, iters=40, x_true=x_true)
        errors = report.rel_errors
        assert np.nanmin(errors) < errors[-1]

    def test_final_error_without_truth_is_nan(self):
        rng = np.random.default_rng(14)
        _, report = lsqr_solve(MatrixOperator(rng.standard_normal((30, 20))),
                               rng.standard_normal(30), iters=5)
        assert np.isnan(report.rel_errors).all()
        assert all(r.rel_error is None for r in report.records)


def ill_posed(seed, m=50, n=40):
    """A matrix with a decaying spectrum, noisy data and the noise norm."""
    rng = np.random.default_rng(seed)
    u, s, vt = np.linalg.svd(rng.standard_normal((m, n)), full_matrices=False)
    a = (u * (s * np.exp(-np.arange(n) / 6.0))) @ vt
    b_clean = a @ (vt[0] + 0.5 * vt[1])
    e = rng.standard_normal(m)
    b = b_clean + 0.05 * np.linalg.norm(b_clean) / np.linalg.norm(e) * e
    return a, b, float(np.linalg.norm(b - b_clean))


def rank_four(consistent):
    """A 12x8 matrix of rank 4: generic data break the decomposition down
    on alpha at step 5, data in its range on beta at step 4."""
    rng = np.random.default_rng(5)
    a = rng.standard_normal((12, 4)) @ rng.standard_normal((4, 8))
    b = a @ rng.standard_normal(8) if consistent else rng.standard_normal(12)
    return a, b


class TestErrorTrace:
    """The traced ``rel_error`` of iterate j against the error of the
    iterate a solve capped at j iterations returns, computed directly.

    The two differ by rounding of order 1e-16 times (error + 1), so the
    tolerance is |traced - direct| <= RTOL * direct + ATOL: 1e-13 relative
    (the cases below agree within 1.3e-15 relative) plus 1e-14 absolute,
    in units of the truth's norm.  Below 1e-8 the absolute term is all
    that is left: the noise-free error falls to 5e-16, where the two
    differ by up to 1.7e-16, several percent of the error."""

    RTOL = 1e-13
    ATOL = 1e-14

    def assert_traced(self, solve, x_true, caps):
        errors = []
        for j in caps:
            x, report = solve(j)
            assert report.iterations == j
            direct = relative_error(x, x_true)
            traced = report.records[j - 1].rel_error
            assert abs(traced - direct) <= self.RTOL * direct + self.ATOL
            errors.append(direct)
        return errors

    def test_ill_posed_lsqr(self):
        a, b, _ = ill_posed(6)
        x_true = np.random.default_rng(1).standard_normal(40)
        op = MatrixOperator(a)
        self.assert_traced(lambda j: lsqr_solve(op, b, iters=j, x_true=x_true),
                           x_true, range(1, 41))

    def test_tomography_forward_arm_over_200_lsqr_steps(self):
        geom = standard_geometry(64, 90)
        projector = build_projector(geom)
        phantom = make_phantom(PhantomSpec(size=64))
        clean, _ = generate_dpc_data(phantom, geom, ModelErrorSpec(0.2), projector)
        b = add_noise(clean.values, NoiseSpec(level=0.10, seed=[0, 53]))
        a = compose(make_diff("forward", geom.k, geom.l), projector)
        # the 200-step solve first: the capped ones continue its decomposition
        self.assert_traced(lambda j: lsqr_solve(a, b, iters=j, x_true=phantom.values),
                           phantom.values, [200, *range(1, 200)])

    def test_gbit_continuing_an_lsqr_decomposition(self, steps):
        a, b, eps = ill_posed(6)
        x_true = np.random.default_rng(2).standard_normal(40)
        op = MatrixOperator(a)
        lsqr_solve(op, b, iters=30)
        steps["steps"] = 0
        self.assert_traced(
            lambda j: gbit_solve(op, b, GBiTConfig(epsilon=eps, max_iter=j, maxcounter=30,
                                                   x_true=x_true)),
            x_true, range(1, 31),
        )
        assert steps["steps"] == 0

    @pytest.mark.parametrize("consistent", [False, True], ids=["alpha", "beta"])
    def test_frozen_subspace_after_breakdown(self, consistent):
        a, b = rank_four(consistent)
        x_true = np.arange(1.0, 9.0)
        op = MatrixOperator(a)
        config = GBiTConfig(update_scheme="alternative", lambda0=0.3, maxcounter=30,
                            x_true=x_true)
        _, report = gbit_solve(op, b, config)
        assert report.breakdown == ("beta" if consistent else "alpha")
        # iterations 5 to 9 keep refining the weight on the frozen subspace
        self.assert_traced(lambda j: gbit_solve(op, b, replace(config, max_iter=j)),
                           x_true, range(1, 10))

    def test_noise_free_error_below_1e_8_needs_an_absolute_tolerance(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((30, 20))
        x_true = rng.standard_normal(20)
        op = MatrixOperator(a)
        errors = self.assert_traced(lambda j: lsqr_solve(op, a @ x_true, iters=j, x_true=x_true),
                                    x_true, range(1, 21))
        assert errors[-1] < 1e-8


def fingerprint(solved):
    """Every output of a solve, bit for bit: repr round-trips each float."""
    x, report = solved
    return x.tobytes(), repr(report.records), report.termination, report.breakdown


@pytest.fixture
def steps(monkeypatch):
    """Counts decomposition steps and keeps a weak reference to the last
    decomposition stepped."""
    counted = {"steps": 0, "dec": None}
    step = BidiagDecomposition.step

    def counting_step(self):
        counted["steps"] += 1
        counted["dec"] = weakref.ref(self)
        return step(self)

    monkeypatch.setattr(BidiagDecomposition, "step", counting_step)
    return counted


class TestContinuedDecomposition:
    """A solve on the operator object and right-hand side of the thread's
    previous solve continues that solve's decomposition; each case compares
    with a fresh solve on an equal but distinct operator, byte for byte."""

    def test_gbit_after_lsqr_reads_the_stored_steps(self, steps):
        a, b, eps = ill_posed(6)
        config = GBiTConfig(eta=1.01, epsilon=eps, x_true=np.ones(40))
        fresh = gbit_solve(MatrixOperator(a), b, config)
        op = MatrixOperator(a)
        lsqr_solve(op, b, iters=30)
        steps["steps"] = 0
        continued = gbit_solve(op, b, config)
        assert fresh[1].termination == "discrepancy_met" and fresh[1].iterations < 30
        assert steps["steps"] == 0
        assert fingerprint(continued) == fingerprint(fresh)

    def test_lsqr_after_shorter_gbit_grows_past_the_first_capacity(self, steps):
        a, b, eps = ill_posed(7)
        fresh = lsqr_solve(MatrixOperator(a), b, iters=30, x_true=np.ones(40))
        op = MatrixOperator(a)
        gbit_solve(op, b, GBiTConfig(epsilon=eps, max_iter=5))  # capacity 5
        steps["steps"] = 0
        continued = lsqr_solve(op, b, iters=30, x_true=np.ones(40))
        assert steps["steps"] == 25
        assert fingerprint(continued) == fingerprint(fresh)

    @pytest.mark.parametrize("max_iter", range(1, 8))
    @pytest.mark.parametrize("scheme", ["fixed", "alternative"])
    @pytest.mark.parametrize("consistent", [False, True], ids=["alpha", "beta"])
    def test_breakdown_shows_where_a_fresh_run_meets_it(self, consistent, scheme, max_iter):
        a, b = rank_four(consistent)
        config = GBiTConfig(update_scheme=scheme, lambda0=0.3, max_iter=max_iter)
        fresh = gbit_solve(MatrixOperator(a), b, config)
        cause, step = ("beta", 4) if consistent else ("alpha", 5)
        assert fresh[1].breakdown == (cause if max_iter >= step else None)
        op = MatrixOperator(a)
        assert lsqr_solve(op, b, iters=10)[1].breakdown == cause
        assert fingerprint(gbit_solve(op, b, config)) == fingerprint(fresh)

    def test_tomography_operator(self, steps):
        # D_f R at 32x32, 24 angles: shapes for which BLAS runs threaded
        geom = standard_geometry(32, 24)
        projector = build_projector(geom)
        phantom = make_phantom(PhantomSpec(size=32))
        clean, _ = generate_dpc_data(phantom, geom, ModelErrorSpec(0.2), projector)
        b = add_noise(clean.values, NoiseSpec(level=0.10, seed=[0, 53]))

        def forward():
            return compose(make_diff("forward", geom.k, geom.l), projector)

        config = GBiTConfig(epsilon=float(np.linalg.norm(b - clean.values)),
                            x_true=phantom.values)
        fresh = gbit_solve(forward(), b, config)
        op = forward()
        lsqr = lsqr_solve(op, b, iters=40, x_true=phantom.values)
        steps["steps"] = 0
        assert fingerprint(gbit_solve(op, b, config)) == fingerprint(fresh)
        assert steps["steps"] == 0 and fresh[1].iterations < 40
        assert fingerprint(lsqr) == fingerprint(
            lsqr_solve(forward(), b, iters=40, x_true=phantom.values)
        )


class TestContinuationOnlyWhenItMust:
    def setup_method(self):
        self.a, self.b, _ = ill_posed(8)
        self.op = MatrixOperator(self.a)

    def test_repeat_solve_makes_no_steps(self, steps):
        lsqr_solve(self.op, self.b, iters=12)
        assert steps["steps"] == 12
        lsqr_solve(self.op, self.b.copy(), iters=12)
        lsqr_solve(self.op, self.b, iters=7)
        assert steps["steps"] == 12

    def test_new_operator_over_the_same_matrix_starts_fresh(self, steps):
        lsqr_solve(self.op, self.b, iters=12)
        lsqr_solve(MatrixOperator(self.a), self.b, iters=12)
        assert steps["steps"] == 24

    def test_data_one_ulp_apart_start_fresh(self, steps):
        lsqr_solve(self.op, self.b, iters=12)
        b = self.b.copy()
        b[17] = np.nextafter(b[17], np.inf)
        lsqr_solve(self.op, b, iters=12)
        assert steps["steps"] == 24

    def test_data_mutated_in_place_start_fresh(self, steps):
        b = self.b.copy()
        lsqr_solve(self.op, b, iters=12)
        b[0] += 1.0
        fresh = lsqr_solve(MatrixOperator(self.a), b, iters=12)
        assert fingerprint(lsqr_solve(self.op, b, iters=12)) == fingerprint(fresh)
        assert steps["steps"] == 36


class TestParkedLifetime:
    def test_operator_and_bases_die_with_the_last_reference(self, steps):
        a, b, _ = ill_posed(9)
        op = MatrixOperator(a)
        solved = lsqr_solve(op, b, iters=10)
        alive = weakref.ref(op)
        dec = steps["dec"]
        assert dec() is not None  # parked for the next solve
        del op, solved
        assert alive() is None and dec() is None

    def test_older_operator_dying_keeps_the_newer_entry(self, steps):
        a, b, _ = ill_posed(10)
        old, new = MatrixOperator(a), MatrixOperator(a)
        lsqr_solve(old, b, iters=10)
        lsqr_solve(new, b, iters=10)
        del old
        lsqr_solve(new, b, iters=10)
        assert steps["steps"] == 20

    @pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss in KiB")
    def test_repeated_study_passes_keep_the_peak_memory(self):
        # The first pass drops every decomposition after its solve, as
        # without continuation; the parked bases must then raise the peak
        # neither by outliving a pass nor by being freed after the next
        # decomposition is allocated.
        script = """
import resource
import numpy as np
from dpctomo import gbit
from dpctomo.diffops import invert_forward, make_diff
from dpctomo.linops import compose
from dpctomo.projector import build_projector, standard_geometry
from dpctomo.simlab import (ModelErrorSpec, NoiseSpec, PhantomSpec, add_noise,
                            generate_dpc_data, make_phantom)
geom = standard_geometry(64, 90)
phantom = make_phantom(PhantomSpec(size=64))

def study_pass(drop):
    R = build_projector(geom)
    f, c = generate_dpc_data(phantom, geom, ModelErrorSpec(0.2), R)
    noise = NoiseSpec(level=0.10, seed=[0, 53])
    b_f, b_c = add_noise(f.values, noise), add_noise(c.values, noise)
    arms = [(compose(make_diff("forward", geom.k, geom.l), R), b_f, f.values),
            (compose(make_diff("central", geom.k, geom.l), R), b_c, c.values),
            (R, invert_forward(b_f, geom.k, geom.l), invert_forward(f.values, geom.k, geom.l))]
    for A, b, clean in arms:
        gbit.lsqr_solve(A, b, iters=200)
        if drop:
            gbit._parked.entry = None
        config = gbit.GBiTConfig(epsilon=float(np.linalg.norm(b - clean)), max_iter=200)
        gbit.gbit_solve(A, b, config)
        if drop:
            gbit._parked.entry = None

study_pass(drop=True)
first = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
for _ in range(3):
    study_pass(drop=False)
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - first)
"""
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=300
        )
        assert result.returncode == 0, result.stderr
        assert int(result.stdout) < 2 * 1024, result.stdout  # KiB


class TestThreads:
    def test_threads_sharing_an_operator_give_the_serial_bytes(self):
        # each round extends the decomposition that the thread's previous
        # round left, so a decomposition shared between the threads would be
        # stepped by both at once
        a, b, eps = ill_posed(11, m=300, n=200)
        data = {"b": b, "other": b[::-1].copy()}
        config = GBiTConfig(epsilon=eps)

        def rounds(op, rhs):
            return [(fingerprint(lsqr_solve(op, rhs, iters=iters)),
                     fingerprint(gbit_solve(op, rhs, config))) for iters in range(4, 64, 4)]

        serial = {key: rounds(MatrixOperator(a), rhs) for key, rhs in data.items()}
        shared = MatrixOperator(a)
        for pair in [("b", "b"), ("b", "other")] * 3:
            results = {}
            start = threading.Barrier(len(pair))

            def work(slot, key):
                start.wait()
                results[slot] = rounds(shared, data[key])

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                threads = [threading.Thread(target=work, args=item) for item in enumerate(pair)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
            finally:
                sys.setswitchinterval(interval)
            assert [results[slot] for slot in range(len(pair))] == [serial[k] for k in pair]
