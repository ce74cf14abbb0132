"""Operator algebra: composition, blockwise Kronecker application, adjoints."""

import numpy as np
import pytest

from dpctomo.diffops import DiffOperator, make_diff
from dpctomo.linops import ShapeMismatchError, compose
from oracles import MatrixOperator, block_matrix, densify


def forward_block(k):
    return block_matrix("forward", k)


class TestCompose:
    def test_identity_composition(self):
        op = compose(MatrixOperator(np.eye(3)), MatrixOperator(np.eye(3)))
        np.testing.assert_allclose(op.apply([1.0, 2.0, 3.0]), [1.0, 2.0, 3.0])

    def test_matches_dense_product(self):
        rng = np.random.default_rng(7)
        r = rng.standard_normal((3, 4))
        left = make_diff("forward", 3, 1)
        op = compose(left, MatrixOperator(r))
        dense = np.kron(np.eye(1), forward_block(3)) @ r
        for _ in range(5):
            x = rng.standard_normal(4)
            np.testing.assert_allclose(op.apply(x), dense @ x, rtol=1e-12, atol=1e-12)
            y = rng.standard_normal(3)
            np.testing.assert_allclose(
                op.apply_transpose(y), dense.T @ y, rtol=1e-12, atol=1e-12
            )

    def test_shape_mismatch_names_both_operands(self):
        a = MatrixOperator(np.zeros((2, 3)))
        b = MatrixOperator(np.zeros((4, 2)))
        with pytest.raises(ShapeMismatchError) as err:
            compose(a, b)
        message = str(err.value)
        assert "2x3" in message and "4x2" in message
        assert "3" in message and "4" in message


class TestKronIdentityBlocks:
    """The difference operators are I_l (x) T: one stencil block T applied
    to each of l contiguous segments."""

    def test_identity_block(self):
        # the identity factor keeps the blocks apart: data in one block
        # never leaks into another
        op = make_diff("forward", 3, 4)
        x = np.zeros(12)
        x[6:9] = [1.0, 2.0, 4.0]
        out = op.apply(x)
        np.testing.assert_array_equal(out[6:9], forward_block(3) @ x[6:9])
        np.testing.assert_array_equal(np.delete(out, range(6, 9)), np.zeros(9))

    def test_swap_block_against_dense_kron(self):
        # the size-2 central block is a signed, half-weighted swap
        block = np.array([[0.0, 0.5], [-0.5, 0.0]])
        op = make_diff("central", 2, 2)
        np.testing.assert_array_equal(op.apply([1.0, 2.0, 3.0, 4.0]), [1.0, -0.5, 2.0, -1.5])
        dense = np.kron(np.eye(2), block)
        rng = np.random.default_rng(3)
        x = rng.standard_normal(4)
        np.testing.assert_allclose(op.apply(x), dense @ x, rtol=1e-12)

    def test_adjoint_consistency_difference_block(self):
        op = make_diff("forward", 4, 2)
        rng = np.random.default_rng(11)
        x = rng.standard_normal(8)
        y = rng.standard_normal(8)
        lhs = np.dot(op.apply(x), y)
        rhs = np.dot(x, op.apply_transpose(y))
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)

    def test_rejects_zero_blocks_and_short_blocks(self):
        with pytest.raises(ValueError):
            make_diff("forward", 2, 0)
        with pytest.raises(ValueError):
            make_diff("forward", 1, 2)


def _operator_zoo(seed):
    """One representative of every operator type, randomly sized."""
    rng = np.random.default_rng(seed)
    m, n = int(rng.integers(2, 9)), int(rng.integers(2, 9))
    k, l = int(rng.integers(2, 5)), int(rng.integers(1, 4))
    dense = MatrixOperator(rng.standard_normal((m, n)))
    diff = DiffOperator(("forward", "central")[seed % 2], k, l)
    middle = MatrixOperator(rng.standard_normal((k * l, n)))
    return [
        MatrixOperator(np.eye(n)),
        dense,
        diff,
        compose(diff, middle),
        compose(dense, MatrixOperator(np.eye(n))),
    ]


class TestOperatorContracts:
    @pytest.mark.parametrize("seed", range(20))
    def test_adjoint_identity(self, seed):
        rng = np.random.default_rng(100 + seed)
        for op in _operator_zoo(seed):
            x = rng.standard_normal(op.cols)
            y = rng.standard_normal(op.rows)
            lhs = np.dot(op.apply(x), y)
            rhs = np.dot(x, op.apply_transpose(y))
            scale = max(abs(lhs), abs(rhs), 1e-30)
            assert abs(lhs - rhs) <= 1e-12 * max(scale, 1.0)

    @pytest.mark.parametrize("seed", range(20))
    def test_linearity(self, seed):
        rng = np.random.default_rng(200 + seed)
        for op in _operator_zoo(seed):
            x1 = rng.standard_normal(op.cols)
            x2 = rng.standard_normal(op.cols)
            a, b = rng.standard_normal(2)
            lhs = op.apply(a * x1 + b * x2)
            rhs = a * op.apply(x1) + b * op.apply(x2)
            np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_densified_transpose_is_transpose(self, seed):
        for op in _operator_zoo(seed):
            assert op.rows <= 64 and op.cols <= 64
            dense = densify(op)
            probe = np.zeros(op.rows)
            adj = np.empty((op.cols, op.rows))
            for i in range(op.rows):
                probe[i] = 1.0
                adj[:, i] = op.apply_transpose(probe)
                probe[i] = 0.0
            np.testing.assert_allclose(adj, dense.T, rtol=1e-12, atol=1e-12)


class TestValidation:
    def test_matrix_operator_rejects_bad_input(self):
        with pytest.raises(ValueError):
            MatrixOperator(np.zeros(3))
        op = MatrixOperator(np.eye(2))
        with pytest.raises(ShapeMismatchError):
            op.apply([1.0, 2.0, 3.0])

    def test_operators_are_read_only(self):
        op = MatrixOperator(np.eye(2))
        with pytest.raises(ValueError):
            op.matrix[0, 0] = 5.0
