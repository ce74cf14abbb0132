"""Bidiagonalization, projected solves, secant updates, and the full loop."""

import numpy as np
import pytest

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
        rng = np.random.default_rng(9)
        a = rng.standard_normal((6, 4))
        b = rng.standard_normal(6)
        x0 = rng.standard_normal(4)
        dec = BidiagDecomposition(MatrixOperator(a), b, x0=x0)
        r0 = b - a @ x0
        np.testing.assert_allclose(dec.U[:, 0], r0 / np.linalg.norm(r0), rtol=1e-14)
        np.testing.assert_allclose(dec.r0_norm, np.linalg.norm(r0), rtol=1e-14)

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


class TestProjectedSolves:
    def test_two_by_one_closed_form(self):
        y, phi0 = solve_lsqr_subproblem([3.0], [4.0], 5.0)
        np.testing.assert_allclose(y, [0.6], rtol=1e-15)
        assert abs(phi0 - 4.0) <= 1e-12

    def test_consistent_system_reaches_zero_residual(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((6, 6))
        x_true = rng.standard_normal(6)
        b = a @ x_true
        dec = decompose(a, b, steps=6)
        _, phi0 = solve_lsqr_subproblem(dec.alphas, dec.betas, dec.r0_norm)
        assert phi0 <= 1e-10 * np.linalg.norm(b)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_dense_least_squares(self, seed):
        rng = np.random.default_rng(40 + seed)
        alphas = rng.uniform(0.5, 2.0, size=5)
        betas = rng.uniform(0.5, 2.0, size=5)
        r0 = 3.7
        y, phi0 = solve_lsqr_subproblem(alphas, betas, r0)
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
        y0, phi0 = solve_lsqr_subproblem(alphas, betas, 2.2)
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
        x0 = rng.standard_normal(6)
        lam = 0.37
        config = GBiTConfig(update_scheme="fixed", lambda0=lam, max_iter=6, x0=x0)
        x, _ = gbit_solve(MatrixOperator(a), b, config)
        x_ref = np.linalg.solve(a.T @ a + lam * np.eye(6), a.T @ b + lam * x0)
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
            assert_same_bits(solve_lsqr_subproblem(alphas[:k], betas[:k], r0), swept)

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
        above_target = report.phi0s > 1.01 * eps
        assert above_target[0] and above_target.sum() >= 2
        # inflates far above its starting value while the unregularized
        # residual exceeds the target, then falls back and levels off
        assert lams[peak] > 100.0 * config.lambda0
        assert above_target[peak]
        assert lams[-1] < lams[peak]
        plateau = lams[-5:]
        assert plateau.max() - plateau.min() <= 0.05 * plateau.mean()
        assert np.all(lams > 0.0)
        assert np.isfinite(report.phi0s).all() and np.isfinite([r.phi_lambda for r in report.records]).all()

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
        np.testing.assert_array_equal(rep_fixed.phi0s, rep_lsqr.phi0s)

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
            GBiTConfig(update_scheme="classic", epsilon=None).validate()

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

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GBiTConfig(eta=0.9, epsilon=1.0).validate()
        with pytest.raises(ValueError):
            GBiTConfig(epsilon=1.0, lambda0=0.0).validate()
        with pytest.raises(ValueError):
            GBiTConfig(epsilon=1.0, max_iter=0).validate()
        with pytest.raises(ValueError):
            GBiTConfig(epsilon=1.0, maxcounter=0).validate()
        with pytest.raises(ValueError):
            GBiTConfig(epsilon=1.0, update_scheme="bogus").validate()

    @pytest.mark.parametrize(
        "matrix,rhs,x0,cause,termination,iterations",
        [
            (np.eye(3), [1.0, 2.0, 3.0], [1.0, 2.0, 3.0], "zero_residual", "discrepancy_met",
             0),
            # A^T u_2 lies in span(v_1): no second right-basis column
            ([[1.0, 0.0], [0.0, 0.0]], [1.0, 1.0], None, "alpha", "breakdown", 1),
            # A v_1 lies in span(u_1): the subdiagonal entry is zero
            (np.eye(3), [1.0, 0.0, 0.0], None, "beta", "breakdown", 1),
            (np.arange(1.0, 13.0).reshape(4, 3) ** 2, [1.0, -1.0, 2.0, 0.5], None, None,
             "max_iter", 2),
        ],
        ids=["zero_residual", "alpha", "beta", "none"],
    )
    def test_report_names_the_breakdown_cause(
        self, matrix, rhs, x0, cause, termination, iterations
    ):
        config = GBiTConfig(update_scheme="fixed", lambda0=0.0, max_iter=2, x0=x0)
        _, report = gbit_solve(MatrixOperator(np.asarray(matrix)), rhs, config)
        assert report.breakdown == cause
        assert report.termination == termination
        assert report.iterations == iterations

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize(
        "where", ["right-hand side b", "initial guess x0", "ground truth x_true"]
    )
    def test_nonfinite_data_rejected_naming_it(self, where, bad):
        vectors = {"b": np.ones(4), "x0": np.zeros(3), "x_true": np.ones(3)}
        vectors[where.split()[-1]][1] = bad
        b = vectors["b"]
        config = GBiTConfig(epsilon=1.0, x0=vectors["x0"], x_true=vectors["x_true"])
        with pytest.raises(ValueError, match=where):
            gbit_solve(MatrixOperator(np.ones((4, 3))), b, config)

    def test_zero_residual_returns_initial_guess(self):
        a = np.eye(3)
        x0 = np.array([1.0, 2.0, 3.0])
        config = GBiTConfig(epsilon=1.0, x0=x0)
        x, report = gbit_solve(MatrixOperator(a), a @ x0, config)
        np.testing.assert_array_equal(x, x0)
        assert report.termination == "discrepancy_met"
        assert report.iterations == 0


class TestLSQR:
    def test_consistent_dense_system(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((6, 4))
        x_true = rng.standard_normal(4)
        b = a @ x_true
        x, report = lsqr_solve(MatrixOperator(a), b, iters=10)
        assert report.phi0s[3] <= 1e-8 * np.linalg.norm(b)
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
