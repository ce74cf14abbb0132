"""Bidiagonalization-based least-squares solvers with adaptive Tikhonov
regularization.

The decomposition is the Paige-Saunders lower-bidiagonal recursion started
from the normalized right-hand side: the iteration starts from zero.  Both
basis sequences are reorthogonalized (classical Gram-Schmidt, applied
twice, against all stored columns), which keeps the projected residual of
the small bidiagonal problem equal to the true residual of the full
problem to near machine precision.  ``gbit_solve`` allocates each basis once, with
room for its iteration cap; a decomposition made without a capacity, or
continued past it, doubles its bases as it grows.

The decomposition does not depend on the weight, so a solve on the
operator object and the bit-identical right-hand side of the thread's
previous solve continues that solve's decomposition: it reads the stored
columns and steps only past them, so every output keeps its bits.  Each
thread parks the bases of its last solve, with the operator held weakly,
until that operator dies or the thread solves on other data: 89 MB after
a 100-step ``lsqr_solve`` at 256x256 pixels and 180 angles.

Each outer iteration solves the projected problem twice, once
unregularized and once with the current ridge weight (once only when
that weight is zero), and updates the weight by a secant step aimed at
the discrepancy target.  The penalty is the identity, so the ridge solve
is a damped least-squares problem; both projected systems are solved by
Givens QR directly on the two coefficient sequences, and the bidiagonal
matrix is never formed densely.  The undamped QR is kept across
iterations and gains one rotation per step, as in LSQR; the damped one
is swept afresh, since its first rotation already depends on the weight.

The error trace never forms an iterate.  A solve given ``x_true`` splits
it as ``V_k c + r`` with ``r`` orthogonal to the columns seen so far,
projecting out each new column once (``c_j = v_j . r``, then
``r -= c_j v_j``), and records ``sqrt(||r||^2 + ||c - y||^2) / ||x_true||``.
That equals ``||V_k y - x_true|| / ||x_true||`` because ``V_k`` is
orthonormal (to about 1e-15 with the reorthogonalization), and it costs
a few passes over n-vectors per new column, not a product with the
n x k basis.  Only the
returned iterate, and each iterate when ``track_residual`` is set, is
formed as ``V_k y``.
"""

from __future__ import annotations

import mmap
import threading
import weakref
from dataclasses import dataclass

import numpy as np

from .linops import LinearOperator, as_vector

_BREAKDOWN_RTOL = 1e-14
UPDATE_SCHEMES = ("classic", "alternative", "fixed")
_parked = threading.local()  # .entry: (weakref to the operator, [b bytes, decomposition])


def _basis(rows: int, cols: int) -> np.ndarray:
    """An F-ordered basis in its own anonymous mapping, advised for huge
    pages as numpy advises its large arrays; freeing it unmaps it, so parked
    bases leave no free blocks in the malloc heap for later allocations."""
    buffer = mmap.mmap(-1, max(8 * rows * cols, 1))
    if hasattr(mmap, "MADV_HUGEPAGE"):
        buffer.madvise(mmap.MADV_HUGEPAGE)
    return np.ndarray((rows, cols), order="F", buffer=buffer)


class BidiagDecomposition:
    """Growing lower-bidiagonal decomposition A V_k = U_{k+1} B_{k+1,k}.

    ``alphas`` holds the diagonal of B and ``betas`` the subdiagonal;
    after ``k`` completed steps both have length ``k`` and the stored
    bases have ``k`` (V) and ``k + 1`` (U) orthonormal columns.

    A step reports breakdown when the next coefficient falls below
    1e-14 times the operator scale (estimated from the first diagonal
    pair).  Breakdown while forming ``v_k`` adds no column; breakdown
    while forming ``u_{k+1}`` keeps ``v_k`` and records a zero
    subdiagonal entry, so the projected problem of size ``k`` is still
    solvable.  ``breakdown`` names the cause: ``zero_residual``,
    ``alpha`` or ``beta``.

    ``capacity`` is the number of steps the bases are allocated for at
    once; without it, or past it, they double as needed.  Columns past
    the used count are never read.
    """

    def __init__(self, operator: LinearOperator, rhs, capacity: int | None = None):
        self.operator = operator
        b = as_vector(rhs, operator.rows, "right-hand side")
        self.r0_norm = float(np.linalg.norm(b))
        self.breakdown: str | None = None
        self._alphas: list[float] = []
        self._betas: list[float] = []
        self._scale: float | None = None
        m, n = operator.rows, operator.cols
        steps = 8 if capacity is None else max(1, int(capacity))
        self._u = _basis(m, steps + 1)
        self._v = _basis(n, steps)
        self._nu = 0
        self._nv = 0
        if self.r0_norm == 0.0:
            self.breakdown = "zero_residual"
        else:
            self._u[:, 0] = b / self.r0_norm
            self._nu = 1

    @property
    def k(self) -> int:
        """Number of stored right-basis columns (completed subspace size)."""
        return self._nv

    @property
    def alphas(self) -> np.ndarray:
        return np.asarray(self._alphas)

    @property
    def betas(self) -> np.ndarray:
        return np.asarray(self._betas)

    @property
    def U(self) -> np.ndarray:
        return self._u[:, : self._nu]

    @property
    def V(self) -> np.ndarray:
        return self._v[:, : self._nv]

    @staticmethod
    def _grow(arr: np.ndarray, needed: int) -> np.ndarray:
        if arr.shape[1] >= needed:
            return arr
        new = _basis(arr.shape[0], max(needed, 2 * arr.shape[1]))
        new[:, : arr.shape[1]] = arr
        return new

    @staticmethod
    def _reorthogonalize(vec: np.ndarray, basis: np.ndarray) -> np.ndarray:
        if basis.shape[1] == 0:
            return vec
        for _ in range(2):
            vec = vec - basis @ (basis.T @ vec)
        return vec

    def _negligible(self, value: float) -> bool:
        scale = self._scale if self._scale is not None else value
        return not value > _BREAKDOWN_RTOL * scale

    def step(self) -> bool:
        """Append one column pair; returns False on breakdown."""
        if self.breakdown is not None:
            return False
        j = self._nv
        op = self.operator
        u = self._u[:, j]

        r = op.apply_transpose(u)
        if j > 0:
            r -= self._betas[j - 1] * self._v[:, j - 1]
        r = self._reorthogonalize(r, self._v[:, :j])
        alpha = float(np.linalg.norm(r))
        if self._negligible(alpha):
            self.breakdown = "alpha"
            return False
        self._v = self._grow(self._v, j + 1)
        self._v[:, j] = r / alpha
        self._nv = j + 1
        self._alphas.append(alpha)

        p = op.apply(self._v[:, j]) - alpha * u
        p = self._reorthogonalize(p, self._u[:, : j + 1])
        beta = float(np.linalg.norm(p))
        if j == 0:
            self._scale = max(alpha, beta)
        if self._negligible(beta):
            self._betas.append(0.0)
            self.breakdown = "beta"
            return False
        self._u = self._grow(self._u, j + 2)
        self._u[:, j + 1] = p / beta
        self._nu = j + 2
        self._betas.append(beta)
        return True


class BidiagQR:
    """Givens QR of the damped bidiagonal ``[B; damp*I]``, column by column.

    Column ``i`` takes the rotation that merges the damping entry (when
    ``damp > 0``) and then the one that eliminates ``beta_i``.  Earlier
    rotations never change as the decomposition grows, so ``extend`` adds
    only the new columns: one rotation per step when undamped, as in
    LSQR.  The arithmetic runs on Python floats in the order of a sweep
    over all columns, so the factors do not depend on how the columns
    arrived.  ``np.hypot`` is kept because ``math.hypot`` rounds some
    pairs differently.  Zero pivots (possible only after breakdown) give
    the minimum-norm completion with ``y_i = 0``.
    """

    def __init__(self, rhs0: float, damp: float = 0.0):
        self.damp = damp
        self._rho: list[float] = []
        self._theta: list[float] = [0.0]  # theta[i] is R[i-1, i]
        self._phi: list[float] = []
        self._c = self._s = 0.0
        self._phibar = rhs0

    def extend(self, alphas, betas) -> "BidiagQR":
        """Rotate in the columns of the sequences not yet factored."""
        done = len(self._rho)
        if alphas.size < done:
            raise ValueError(f"the factorization holds {done} columns, more than {alphas.size}")
        damp = self.damp
        for i in range(done, alphas.size):
            alpha = float(alphas[i])
            if i == 0:
                rhobar = alpha
            else:
                self._theta.append(self._s * alpha)
                rhobar = self._c * alpha
            phibar = self._phibar
            if damp > 0.0:
                merged = float(np.hypot(rhobar, damp))
                phibar *= rhobar / merged
                rhobar = merged
            beta = float(betas[i])
            r = float(np.hypot(rhobar, beta))
            if r == 0.0:
                c, s = 1.0, 0.0
            else:
                c, s = rhobar / r, beta / r
            self._rho.append(r)
            self._phi.append(c * phibar)
            self._phibar = -s * phibar
            self._c, self._s = c, s
        return self

    def solve(self) -> np.ndarray:
        """Back-substitution through the triangular factor."""
        rho, theta, phi = self._rho, self._theta, self._phi
        k = len(rho)
        y = [0.0] * k
        for i in range(k - 1, -1, -1):
            if rho[i] > 0.0:
                carry = theta[i + 1] * y[i + 1] if i + 1 < k else 0.0
                y[i] = (phi[i] - carry) / rho[i]
        return np.array(y)


def _projected_residual(alphas, betas, y, rhs0) -> float:
    """Residual norm of the projected system, ||B y - rhs0 * e1||."""
    k = alphas.size
    r = np.empty(k + 1)
    r[0] = rhs0 - alphas[0] * y[0]
    if k > 1:
        r[1:k] = -(betas[: k - 1] * y[: k - 1] + alphas[1:] * y[1:])
    r[k] = -betas[k - 1] * y[k - 1]
    return float(np.linalg.norm(r))


def _coefficients(alphas, betas):
    alphas = np.asarray(alphas, dtype=np.float64)
    betas = np.asarray(betas, dtype=np.float64)
    if alphas.size < 1:
        raise ValueError("the decomposition holds no columns yet")
    return alphas, betas


def solve_lsqr_subproblem(alphas, betas, r0_norm, qr: BidiagQR):
    """Unregularized projected solve; the residual equals the residual of
    the full least-squares iterate by orthonormality of the left basis.

    ``qr`` is the running factorization of earlier, shorter sequences
    with the same ``r0_norm``, started as ``BidiagQR(r0_norm)``; it is
    extended in place.
    """
    alphas, betas = _coefficients(alphas, betas)
    y = qr.extend(alphas, betas).solve()
    return y, _projected_residual(alphas, betas, y, float(r0_norm))


def solve_tikhonov_subproblem(alphas, betas, r0_norm, lam):
    """Projected ridge solve min ||B y - r0_norm*e1||^2 + lam * ||y||^2,
    run on the coefficient sequences with damp sqrt(lam).

    The reported residual is that of the bidiagonal block alone, which
    equals the full-space residual ||b - A x|| of the regularized iterate.
    """
    if lam < 0.0:
        raise ValueError(f"regularization weight must be nonnegative, got {lam}")
    alphas, betas = _coefficients(alphas, betas)
    y = BidiagQR(float(r0_norm), damp=float(np.sqrt(lam))).extend(alphas, betas).solve()
    return y, _projected_residual(alphas, betas, y, float(r0_norm))


def secant_update(lambda_prev, phi0, phi_lambda, target):
    """One secant step of the weight toward the residual ``target``.

    The classic scheme aims at eta * epsilon, the alternative one at eta
    times the previous unregularized residual (the initial residual norm
    on the first iteration).  The absolute value keeps the weight
    positive while the unregularized residual still exceeds the target.
    A flat secant (equal residuals) leaves the weight unchanged; a
    vanishing numerator clamps to a tiny positive multiple, since the
    multiplicative update cannot recover from an exact zero.
    """
    if lambda_prev <= 0.0:
        raise ValueError(f"previous weight must be positive, got {lambda_prev}")
    denom = phi_lambda - phi0
    if denom == 0.0:
        return lambda_prev
    lam = abs((target - phi0) / denom) * lambda_prev
    if lam == 0.0:
        lam = 1e-12 * lambda_prev
    return lam


@dataclass(frozen=True, eq=False)
class GBiTConfig:
    """Solver configuration, checked when it is made (ValueError).

    ``update_scheme`` selects how the ridge weight evolves: ``classic``
    chases eta * epsilon (requires the noise-norm estimate ``epsilon``),
    ``alternative`` chases the previous unregularized residual and needs
    no noise estimate, ``fixed`` keeps ``lambda0`` throughout and never
    triggers the discrepancy stop (useful for plain ridge solves and for
    running the unregularized iteration with ``lambda0 = 0``).

    The stop counter requires the discrepancy test to hold on
    ``maxcounter + 1`` iterations in total before terminating.
    """

    eta: float = 1.01
    epsilon: float | None = None
    lambda0: float = 1.0
    max_iter: int = 200
    maxcounter: int = 3
    update_scheme: str = "classic"
    x_true: np.ndarray | None = None
    track_residual: bool = False

    def __post_init__(self):
        for name in ("eta", "lambda0", "epsilon"):
            value = getattr(self, name)
            if value is not None and not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.update_scheme not in UPDATE_SCHEMES:
            raise ValueError(
                f"unknown update scheme {self.update_scheme!r}; expected one of {UPDATE_SCHEMES}"
            )
        if self.eta < 1.0:
            raise ValueError(f"eta must be >= 1, got {self.eta}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")
        if self.maxcounter < 1:
            raise ValueError(f"maxcounter must be >= 1, got {self.maxcounter}")
        if self.update_scheme == "fixed":
            if self.lambda0 < 0.0:
                raise ValueError(f"lambda0 must be >= 0, got {self.lambda0}")
        elif self.lambda0 <= 0.0:
            raise ValueError(f"lambda0 must be positive, got {self.lambda0}")
        if self.update_scheme == "classic" and not (
            self.epsilon is not None and self.epsilon > 0.0
        ):
            raise ValueError(
                "the classic update chases the discrepancy target eta * epsilon and "
                "needs a positive noise-norm estimate epsilon; pass epsilon > 0 or "
                "switch to the alternative scheme"
            )


@dataclass(frozen=True)
class IterationRecord:
    """One iteration of the trace.

    ``lam_used`` is the weight the iterate and ``phi_lambda`` were solved
    with; ``lam`` is the next weight, chosen by the secant step from this
    iteration's residuals, and so the ``lam_used`` of the next record.
    ``rel_error`` is ``||x - x_true|| / ||x_true||`` of this iterate,
    traced in the basis' coordinates (module docstring), so it assumes an
    orthonormal right basis; it agrees with the direct norm to about
    1e-15 of ``||x_true||``.
    """

    iteration: int
    phi0: float
    phi_lambda: float
    lam: float
    lam_used: float
    rel_error: float | None = None
    residual: float | None = None


@dataclass
class GBiTReport:
    """Per-iteration trace and termination reason.

    ``breakdown`` is the decomposition's cause (``zero_residual``,
    ``alpha`` or ``beta``), or None if it never broke down; it is set
    whatever the termination.
    """

    records: list[IterationRecord]
    termination: str  # discrepancy_met | max_iter | breakdown
    breakdown: str | None = None

    @property
    def iterations(self) -> int:
        return len(self.records)

    @property
    def rel_errors(self) -> np.ndarray:
        return np.array(
            [np.nan if r.rel_error is None else r.rel_error for r in self.records]
        )


def _require_finite(**named):
    for name, value in named.items():
        if not np.isfinite(value):
            raise FloatingPointError(f"solver trace produced a non-finite {name}: {value}")


def _decomposition(A: LinearOperator, b: np.ndarray, capacity: int) -> BidiagDecomposition:
    """The thread's parked decomposition if it was built on this operator
    and right-hand side, else a new one made after the parked one is freed."""
    entry, _parked.entry = getattr(_parked, "entry", None), None
    if entry is not None and entry[0]() is A and entry[1][0] == b.tobytes():
        dec = entry[1][1]
        dec.operator = A
        return dec
    del entry
    return BidiagDecomposition(A, b, capacity)


def _park(A: LinearOperator, b: np.ndarray, dec: BidiagDecomposition):
    """Keep ``dec``, without its operator, for the thread's next solve.  The
    operator's death empties only this entry's box, never a newer entry's."""
    dec.operator = None
    box = [b.tobytes(), dec]
    _parked.entry = (weakref.ref(A, lambda _: box.clear()), box)


def gbit_solve(A: LinearOperator, b, config: GBiTConfig):
    """Run the regularized bidiagonalization iteration on A x = b from zero.

    Per iteration: one decomposition step, the unregularized projected
    solve, the regularized projected solve at the current weight, then the
    secant update of the weight.  The discrepancy counter grows on every
    iteration whose regularized residual passes the stop test (classic:
    below eta * epsilon; alternative: below 1.01 * eta times the previous
    unregularized residual) and the loop ends once the counter exceeds
    ``maxcounter``.  Returns the final iterate and the full trace.

    If the decomposition breaks down (the data lies in an exhausted
    subspace) the adaptive schemes keep refining the weight on the frozen
    projected problem, since the secant update needs no new columns; the
    ``fixed`` scheme returns at once because its iterate can no longer
    change.  A run that ends with the subspace exhausted and the stop rule
    unmet reports ``breakdown``.  A ``b`` or ``x_true`` that holds NaN or
    inf, or whose norm overflows, raises ValueError; a zero ``b`` returns
    the zero vector with no iterations.
    """
    b = as_vector(b, A.rows, "right-hand side")
    x_true = None if config.x_true is None else as_vector(config.x_true, A.cols, "ground truth")
    for name, vector in (("right-hand side b", b), ("ground truth x_true", x_true)):
        if vector is None:
            continue
        with np.errstate(over="ignore"):
            norm = np.linalg.norm(vector)
        if not np.isfinite(norm):
            raise ValueError(f"{name} holds NaN or inf, or its norm overflows to inf")
    if x_true is not None:
        true_norm = float(np.linalg.norm(x_true))
        if true_norm == 0.0:
            raise ValueError("ground-truth vector must be nonzero for the error trace")

    dec = _decomposition(A, b, capacity=min(config.max_iter, A.rows, A.cols))
    records: list[IterationRecord] = []
    if dec.r0_norm == 0.0:
        return np.zeros(A.cols), GBiTReport(records, "discrepancy_met", dec.breakdown)
    qr = BidiagQR(dec.r0_norm)

    if x_true is not None:
        # x_true = V c + outside, with outside orthogonal to the columns seen
        outside, coeffs = x_true.copy(), []
    fixed = config.update_scheme == "fixed"
    lam = float(config.lambda0)
    phi0_prev = dec.r0_norm
    counter = 0
    y_current = np.zeros(0)  # no columns yet: the zero iterate

    for it in range(1, config.max_iter + 1):
        # iteration it sees what a fresh decomposition would after it steps:
        # an alpha breakdown once no column was added, a beta one from its step on
        if dec.k < it:
            dec.step()
        k = min(it, dec.k)
        seen = dec.k < it or (dec.k == it and dec.breakdown == "beta")
        breakdown = dec.breakdown if seen else None
        if k == 0 or fixed and k < it:
            # no column yet, or none added with the weight pinned: the iterate
            # cannot change (adaptive schemes keep refining the weight)
            termination = "breakdown"
            break
        alphas, betas = dec.alphas[:k], dec.betas[:k]
        y0, phi0 = solve_lsqr_subproblem(alphas, betas, dec.r0_norm, qr)
        if lam == 0.0:
            # the ridge solve at weight zero is the unregularized one
            y_lam, phi_lam = y0, phi0
        else:
            y_lam, phi_lam = solve_tikhonov_subproblem(alphas, betas, dec.r0_norm, lam)
        if fixed:
            lam_next, stop = lam, 0.0  # no residual norm is below zero: no stop
        else:
            if config.update_scheme == "classic":
                target = stop = config.eta * config.epsilon
            else:  # alternative
                target, stop = config.eta * phi0_prev, 1.01 * config.eta * phi0_prev
            lam_next = secant_update(lam, phi0, phi_lam, target)
        _require_finite(phi0=phi0, phi_lambda=phi_lam, lam=lam_next)
        y_current = y_lam

        rel_error = None
        residual = None
        if x_true is not None:
            # einsum, not BLAS: a threaded dot between numpy updates doubled the time
            for v in dec.V[:, len(coeffs) : k].T:
                coeffs.append(float(np.einsum("i,i", v, outside)))
                outside -= coeffs[-1] * v
            inside = np.subtract(coeffs, y_lam)
            misfit_sq = np.einsum("i,i", outside, outside) + inside @ inside
            rel_error = float(np.sqrt(misfit_sq) / true_norm)
        if config.track_residual:
            residual = float(np.linalg.norm(b - A.apply(dec.V[:, :k] @ y_lam)))
        records.append(IterationRecord(it, phi0, phi_lam, lam_next, lam, rel_error, residual))

        if phi_lam < stop:
            counter += 1
            if counter > config.maxcounter:
                termination = "discrepancy_met"
                break
        lam = lam_next
        phi0_prev = phi0
    else:
        termination = "max_iter" if breakdown is None else "breakdown"

    _park(A, b, dec)
    return dec.V[:, : y_current.size] @ y_current, GBiTReport(records, termination, breakdown)


def lsqr_solve(A: LinearOperator, b, iters: int, x_true=None):
    """Unregularized iteration: the solver loop with the ridge weight
    pinned to zero and no stop test, so each iterate is the plain
    projected least-squares solution.  The ``phi0`` column of the report
    is the residual trace."""
    config = GBiTConfig(
        update_scheme="fixed",
        lambda0=0.0,
        max_iter=int(iters),
        x_true=x_true,
    )
    return gbit_solve(A, b, config)
