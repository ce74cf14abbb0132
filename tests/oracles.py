"""Dense small-instance oracles shared by the tests and ``docs/``.

Each helper materializes something the package only ever applies or
stores in compact form, so a test can compare against plain dense
linear algebra; ``givens_sweep`` is the reference projected solve,
``complex_filtered_blocks`` the reference FBP filter and ``text_values``
the reference text format.  The module name keeps pytest from
collecting it.
"""

from dataclasses import dataclass

import numpy as np

from dpctomo.linops import LinearOperator, as_vector


class MatrixOperator(LinearOperator):
    """Dense matrix wrapped as an operator (row-major float64 storage)."""

    def __init__(self, matrix):
        a = np.array(matrix, dtype=np.float64, order="C", copy=True)
        if a.ndim != 2:
            raise ValueError(f"expected a 2-D matrix, got ndim={a.ndim}")
        a.setflags(write=False)
        super().__init__(a.shape[0], a.shape[1])
        self.matrix = a

    def apply(self, x):
        return self.matrix @ as_vector(x, self.cols, repr(self))

    def apply_transpose(self, y):
        return self.matrix.T @ as_vector(y, self.rows, repr(self))


def densify(op) -> np.ndarray:
    """Materialize an operator column by column with basis-vector probes."""
    cols = np.empty((op.rows, op.cols))
    e = np.zeros(op.cols)
    for j in range(op.cols):
        e[j] = 1.0
        cols[:, j] = op.apply(e)
        e[j] = 0.0
    return cols


def dense_bidiagonal(alphas, betas) -> np.ndarray:
    """The (k+1, k) lower-bidiagonal matrix of the coefficient sequences."""
    alphas = np.asarray(alphas, dtype=np.float64)
    betas = np.asarray(betas, dtype=np.float64)
    k = alphas.size
    if betas.size != k:
        raise ValueError(f"expected {k} subdiagonal entries, got {betas.size}")
    b = np.zeros((k + 1, k))
    b[np.arange(k), np.arange(k)] = alphas
    b[np.arange(1, k + 1), np.arange(k)] = betas
    return b


def givens_sweep(alphas, betas, rhs0, damp=0.0):
    """min || [B; damp*I] y - [rhs0*e1; 0] || by one Givens sweep over all
    columns on numpy scalars, with the residual ||B y - rhs0*e1||.

    This is the projected solve as it was before the package kept its
    undamped QR across iterations; the package must match it bit for bit.
    """
    alphas = np.asarray(alphas, dtype=np.float64)
    betas = np.asarray(betas, dtype=np.float64)
    rhs0 = float(rhs0)
    k = alphas.size
    rho = np.empty(k)
    theta = np.zeros(k)
    phi = np.empty(k)
    rhobar = alphas[0]
    phibar = rhs0
    for i in range(k):
        if damp > 0.0:
            merged = np.hypot(rhobar, damp)
            phibar *= rhobar / merged
            rhobar = merged
        r = np.hypot(rhobar, betas[i])
        if r == 0.0:
            c, s = 1.0, 0.0
        else:
            c, s = rhobar / r, betas[i] / r
        rho[i] = r
        phi[i] = c * phibar
        phibar = -s * phibar
        if i + 1 < k:
            theta[i + 1] = s * alphas[i + 1]
            rhobar = c * alphas[i + 1]
    y = np.zeros(k)
    for i in range(k - 1, -1, -1):
        if rho[i] > 0.0:
            carry = theta[i + 1] * y[i + 1] if i + 1 < k else 0.0
            y[i] = (phi[i] - carry) / rho[i]
    res = np.empty(k + 1)
    res[0] = rhs0 - alphas[0] * y[0]
    if k > 1:
        res[1:k] = -(betas[: k - 1] * y[: k - 1] + alphas[1:] * y[1:])
    res[k] = -betas[k - 1] * y[k - 1]
    return y, float(np.linalg.norm(res))


def block_matrix(scheme: str, k: int) -> np.ndarray:
    """Dense k-by-k stencil block (the non-identity Kronecker factor)."""
    if scheme not in ("forward", "central"):
        raise ValueError(f"unknown difference scheme {scheme!r}")
    if k < 2:
        raise ValueError(f"block size k must be >= 2, got {k}")
    t = np.zeros((k, k))
    if scheme == "forward":
        np.fill_diagonal(t, -1.0)
        np.fill_diagonal(t[:, 1:], 1.0)
    else:
        np.fill_diagonal(t[:, 1:], 0.5)
        np.fill_diagonal(t[1:, :], -0.5)
    return t


@dataclass(frozen=True)
class BlockInvertibility:
    """Determinant and nullspace basis of a single dense stencil block."""

    determinant: float
    nullspace: np.ndarray  # shape (m, dim), orthonormal columns


def block_invertibility(scheme: str, m: int, rank_tol: float = 1e-10) -> BlockInvertibility:
    """Dense determinant and nullspace of the m-by-m stencil block; m is
    capped at 16."""
    if not 2 <= int(m) <= 16:
        raise ValueError(f"block size must be in [2, 16] for the dense oracle, got {m}")
    t = block_matrix(scheme, int(m))
    det = float(np.linalg.det(t))
    _, svals, vt = np.linalg.svd(t)
    null_mask = svals <= rank_tol * svals[0]
    basis = vt[null_mask].T.copy()
    return BlockInvertibility(determinant=det, nullspace=basis)


def complex_filtered_blocks(blocks, h: float, kind: str) -> np.ndarray:
    """The FBP filter of each angle block over the zero-padded window, by a
    complex FFT over all frequencies.

    This is the filter as it was before the package moved to a real FFT:
    the symbol is ``|f|`` (ramp) or ``sign(f) / (2 pi i)`` (dpc) with the
    unpaired Nyquist coefficient zeroed, and the real part is returned.
    """
    blocks = np.asarray(blocks, dtype=np.float64)
    l, k = blocks.shape
    padded = 1
    while padded < 2 * k:
        padded *= 2
    freqs = np.fft.fftfreq(padded, d=h)
    if kind == "ramp":
        symbol = np.abs(freqs).astype(complex)
    elif kind == "dpc":
        symbol = np.sign(freqs) / (2.0 * np.pi * 1j)
        symbol[padded // 2] = 0.0
    else:
        raise ValueError(f"unknown filter kind {kind!r}")
    buf = np.zeros((l, padded))
    buf[:, :k] = blocks
    return np.fft.ifft(np.fft.fft(buf, axis=1) * symbol, axis=1).real


def text_values(values) -> str:
    """The data lines of the image and sinogram files, each value
    formatted on its own: 17 significant digits, one value per line."""
    return "".join(format(float(v), ".17g") + "\n" for v in values)
