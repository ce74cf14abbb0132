"""Blockwise difference stencils, closed-form inverses, block analysis."""

import numpy as np
import pytest

from dpctomo.diffops import SingularBlockError, invert_central, invert_forward, make_diff
from oracles import block_invertibility, block_matrix, densify


def dense_operator(scheme, k, l):
    return np.kron(np.eye(l), block_matrix(scheme, k))


class TestStencils:
    def test_forward_example(self):
        np.testing.assert_array_equal(
            make_diff("forward", 3, 1).apply([1.0, 2.0, 4.0]), [1.0, 2.0, -4.0]
        )

    def test_central_example(self):
        np.testing.assert_array_equal(
            make_diff("central", 3, 1).apply([1.0, 2.0, 4.0]), [1.0, 1.5, -1.0]
        )

    def test_zero_maps_to_zero(self):
        for scheme in ("forward", "central"):
            np.testing.assert_array_equal(
                make_diff(scheme, 4, 2).apply(np.zeros(8)), np.zeros(8)
            )

    def test_forward_block_is_literal_matrix(self):
        expected = np.array(
            [
                [-1.0, 1.0, 0.0, 0.0],
                [0.0, -1.0, 1.0, 0.0],
                [0.0, 0.0, -1.0, 1.0],
                [0.0, 0.0, 0.0, -1.0],
            ]
        )
        np.testing.assert_array_equal(block_matrix("forward", 4), expected)

    def test_central_block_is_literal_matrix(self):
        expected = 0.5 * np.array(
            [
                [0.0, 1.0, 0.0, 0.0],
                [-1.0, 0.0, 1.0, 0.0],
                [0.0, -1.0, 0.0, 1.0],
                [0.0, 0.0, -1.0, 0.0],
            ]
        )
        np.testing.assert_array_equal(block_matrix("central", 4), expected)

    @pytest.mark.parametrize("scheme", ["forward", "central"])
    @pytest.mark.parametrize("k,l", [(2, 1), (3, 2), (5, 3)])
    def test_densified_operator_is_kron_product(self, scheme, k, l):
        np.testing.assert_array_equal(
            densify(make_diff(scheme, k, l)), dense_operator(scheme, k, l)
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            make_diff("forward", 1, 1)
        with pytest.raises(ValueError):
            make_diff("forward", 3, 0)
        with pytest.raises(ValueError):
            make_diff("upwind", 3, 1)


class TestForwardInverse:
    def test_unit_suffix_sums(self):
        np.testing.assert_array_equal(invert_forward([1.0, 1.0, 1.0], 3, 1), [-3.0, -2.0, -1.0])
        np.testing.assert_array_equal(invert_forward([0.0, 0.0, 1.0], 3, 1), [-1.0, -1.0, -1.0])

    def test_matches_dense_solve(self):
        rng = np.random.default_rng(4)
        b = rng.standard_normal(12)
        expected = np.linalg.solve(dense_operator("forward", 4, 3), b)
        np.testing.assert_allclose(invert_forward(b, 4, 3), expected, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("k", [16, 256])
    @pytest.mark.parametrize("l", [1, 8])
    def test_roundtrip(self, k, l):
        rng = np.random.default_rng(k + l)
        y = rng.standard_normal(k * l)
        op = make_diff("forward", k, l)
        recovered = invert_forward(op.apply(y), k, l)
        assert np.linalg.norm(recovered - y) <= 1e-12 * np.linalg.norm(y)

    def test_shape_check(self):
        with pytest.raises(ValueError):
            invert_forward([1.0, 2.0], 3, 1)


class TestCentralInverse:
    def test_two_by_two_example(self):
        np.testing.assert_array_equal(invert_central([1.0, 1.0], 2, 1), [-2.0, 2.0])

    def test_roundtrip_even_block(self):
        rng = np.random.default_rng(6)
        y = rng.standard_normal(6)
        op = make_diff("central", 6, 1)
        recovered = invert_central(op.apply(y), 6, 1)
        assert np.linalg.norm(recovered - y) <= 1e-12 * np.linalg.norm(y)

    def test_matches_dense_solve_multi_block(self):
        rng = np.random.default_rng(8)
        b = rng.standard_normal(16)
        expected = np.linalg.solve(dense_operator("central", 8, 2), b)
        np.testing.assert_allclose(invert_central(b, 8, 2), expected, rtol=1e-11, atol=1e-12)

    def test_odd_block_is_singular(self):
        with pytest.raises(SingularBlockError) as err:
            invert_central([1.0, 2.0, 3.0], 3, 1)
        assert "nullspace" in str(err.value)

    def test_dense_inverse_has_alternating_two_pattern(self):
        # the closed-form inverse block alternates zeros and twos
        expected = np.array(
            [
                [0.0, -2.0, 0.0, -2.0, 0.0, -2.0],
                [2.0, 0.0, 0.0, 0.0, 0.0, 0.0],
                [0.0, 0.0, 0.0, -2.0, 0.0, -2.0],
                [2.0, 0.0, 2.0, 0.0, 0.0, 0.0],
                [0.0, 0.0, 0.0, 0.0, 0.0, -2.0],
                [2.0, 0.0, 2.0, 0.0, 2.0, 0.0],
            ]
        )
        np.testing.assert_allclose(np.linalg.inv(block_matrix("central", 6)), expected, atol=1e-12)
        # and the solver reproduces it column by column
        for j in range(6):
            e = np.zeros(6)
            e[j] = 1.0
            np.testing.assert_allclose(invert_central(e, 6, 1), expected[:, j], atol=1e-12)


class TestBlockInvertibility:
    @pytest.mark.parametrize("m", range(2, 13))
    def test_forward_determinant_and_nullspace(self, m):
        result = block_invertibility("forward", m)
        assert abs(result.determinant - (-1.0) ** m) <= 1e-12
        assert result.nullspace.shape == (m, 0)

    @pytest.mark.parametrize("m", [2, 4, 6, 8, 10, 12])
    def test_central_even_determinant(self, m):
        result = block_invertibility("central", m)
        assert abs(result.determinant - 0.5**m) <= 1e-12
        assert result.nullspace.shape == (m, 0)

    @pytest.mark.parametrize("m", [3, 5, 7, 9, 11])
    def test_central_odd_nullspace_is_alternating_vector(self, m):
        result = block_invertibility("central", m)
        assert abs(result.determinant) <= 1e-12
        assert result.nullspace.shape == (m, 1)
        pattern = np.zeros(m)
        pattern[0::2] = 1.0
        assert np.linalg.norm(block_matrix("central", m) @ pattern) <= 1e-14
        # the computed basis spans the same line as the alternating vector
        residual = pattern - result.nullspace @ (result.nullspace.T @ pattern)
        assert np.linalg.norm(residual) <= 1e-10

    def test_size_cap(self):
        with pytest.raises(ValueError):
            block_invertibility("forward", 17)


class TestNoiseBehavior:
    def test_zero_mean_noise_partially_cancels_in_back_substitution(self):
        # suffix sums of centred noise stay far below the worst-case
        # k * max|e| accumulation
        k = 256
        for seed in range(100):
            e = np.random.default_rng(seed).standard_normal(k)
            suffix = np.cumsum(e[::-1])[::-1]
            assert np.abs(suffix).max() < k * np.abs(e).max()

    def test_constant_offset_accumulates_linearly(self):
        k = 256
        idx = np.arange(k)
        for seed in range(10):
            e = np.random.default_rng(seed).standard_normal(k) + 5.0
            drift = invert_forward(e, k, 1)
            # y_i = -sum_{j>=i} e_j tracks -5 * (k - i) up to noise wander
            np.testing.assert_allclose(drift, -5.0 * (k - idx), atol=8.0 * np.sqrt(k))

    def test_constant_blocks_hit_only_boundaries(self):
        c = 3.5
        x = np.full(10, c)
        forward = make_diff("forward", 10, 1).apply(x)
        expected_f = np.zeros(10)
        expected_f[-1] = -c
        np.testing.assert_array_equal(forward, expected_f)
        central = make_diff("central", 10, 1).apply(x)
        expected_c = np.zeros(10)
        expected_c[0] = c / 2.0
        expected_c[-1] = -c / 2.0
        np.testing.assert_array_equal(central, expected_c)
