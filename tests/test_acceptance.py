"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  Shared desk-scale problem pieces are built once per module.

Criterion 7 judges the discrepancy-stopped GBiT iterate against the LSQR
iterate that the same discrepancy rule selects, not against the best LSQR
iterate, which only the ground truth can pick.  On this problem the
least-squares residual floor lies far below eta * epsilon, so every
discrepancy-stopped solution is over-regularized: even full-space Tikhonov
at the exact discrepancy root lands at 1.39 times the best LSQR error.  The
dense-SVD analysis is in ``docs/criterion7.md`` and is reproduced by
``docs/criterion7_oracle.py``.
"""

import time

import numpy as np
import pytest

from dpctomo.diffops import invert_forward, make_diff
from dpctomo.fbp import fbp_reconstruct, filter_sinogram
from dpctomo.gbit import BidiagDecomposition, GBiTConfig, gbit_solve, lsqr_solve
from dpctomo.linops import compose
from dpctomo.projector import (
    ProjectionGeometry,
    Sinogram,
    build_projector,
    project,
    standard_geometry,
    uniform_angles,
)
from dpctomo.simlab import (
    ModelErrorSpec,
    NoiseSpec,
    PhantomSpec,
    add_noise,
    make_phantom,
    phase_retrieval_rhs,
    relative_error,
)
from oracles import MatrixOperator, block_invertibility, block_matrix, dense_bidiagonal


def report(num, ok, detail):
    print(f"\n[criterion {num:2d}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def desk():
    """64x64 phantom, 90 angles, 64 detectors, and its clean data."""
    phantom = make_phantom(PhantomSpec(size=64))
    geom = standard_geometry(64, 90, 64)
    projector = build_projector(geom)
    y = project(projector, phantom).values
    d_forward = make_diff("forward", geom.k, geom.l)
    d_central = make_diff("central", geom.k, geom.l)
    dfy, dcy = d_forward.apply(y), d_central.apply(y)
    omega = 0.2
    return {
        "phantom": phantom,
        "geom": geom,
        "projector": projector,
        "a_forward": compose(d_forward, projector),
        "a_central": compose(d_central, projector),
        "b_f_clean": (1 - omega) * dfy + omega * dcy,
        "b_c_clean": omega * dfy + (1 - omega) * dcy,
    }


def desk_noisy(desk, model, seed):
    clean = desk[f"b_{model[0]}_clean"]
    b = add_noise(clean, NoiseSpec(level=0.10, seed=[seed, 53]))
    return b, float(np.linalg.norm(b - clean))


def test_criterion_01_bidiagonalization_relation():
    start = time.perf_counter()
    worst_rel, worst_orth = 0.0, 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(5, 51))
        n = int(rng.integers(2, min(m, 30) + 1))
        a = rng.standard_normal((m, n))
        dec = BidiagDecomposition(MatrixOperator(a), rng.standard_normal(m))
        while dec.k < n and dec.step():
            pass
        k = dec.k
        b = dense_bidiagonal(dec.alphas, dec.betas)[: dec.U.shape[1], :]
        rel = np.linalg.norm(a @ dec.V - dec.U @ b) / np.linalg.norm(a)
        orth = max(
            np.abs(dec.V.T @ dec.V - np.eye(k)).max(),
            np.abs(dec.U.T @ dec.U - np.eye(dec.U.shape[1])).max(),
        )
        worst_rel, worst_orth = max(worst_rel, rel), max(worst_orth, orth)
    elapsed = time.perf_counter() - start
    ok = worst_rel <= 1e-10 and worst_orth <= 1e-10 and elapsed < 5.0
    report(1, ok, f"relation {worst_rel:.2e}, orthogonality {worst_orth:.2e}, {elapsed:.2f}s")


def test_criterion_02_tikhonov_oracle_equivalence():
    start = time.perf_counter()
    worst = 0.0
    rng = np.random.default_rng(2024)
    for lam in (1e-3, 1.0, 1e3):
        a = rng.standard_normal((30, 20))
        b = rng.standard_normal(30)
        config = GBiTConfig(update_scheme="fixed", lambda0=lam, max_iter=20)
        x, _ = gbit_solve(MatrixOperator(a), b, config)
        x_ref = np.linalg.solve(a.T @ a + lam * np.eye(20), a.T @ b)
        worst = max(worst, np.linalg.norm(x - x_ref) / np.linalg.norm(x_ref))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed < 5.0
    report(2, ok, f"max relative difference {worst:.2e}, {elapsed:.2f}s")


def test_criterion_03_projected_discrepancy_identity(desk):
    b, eps = desk_noisy(desk, "forward", seed=0)
    config = GBiTConfig(
        eta=1.01, epsilon=eps, max_iter=200, track_residual=True,
        x_true=desk["phantom"].values,
    )
    _, rep = gbit_solve(desk["a_forward"], b, config)
    norm_b = np.linalg.norm(b)
    worst = max(abs(r.residual - r.phi_lambda) / norm_b for r in rep.records)
    ok = worst <= 1e-8 and rep.iterations >= 1
    report(3, ok, f"max |true - projected| / ||b|| = {worst:.2e} over {rep.iterations} iterations")


def test_criterion_04_block_determinants_and_nullspace():
    worst_det, worst_null = 0.0, 0.0
    for m in range(2, 13):
        forward = block_invertibility("forward", m)
        worst_det = max(worst_det, abs(forward.determinant - (-1.0) ** m))
        central = block_invertibility("central", m)
        if m % 2 == 0:
            worst_det = max(worst_det, abs(central.determinant - 0.5**m))
        else:
            pattern = np.zeros(m)
            pattern[0::2] = 1.0
            worst_null = max(worst_null, np.linalg.norm(block_matrix("central", m) @ pattern))
            assert central.nullspace.shape == (m, 1)
    ok = worst_det <= 1e-12 and worst_null <= 1e-14
    report(4, ok, f"determinant error {worst_det:.2e}, nullspace residual {worst_null:.2e}")


def test_criterion_05_forward_difference_roundtrip():
    worst = 0.0
    for k in (16, 256):
        for l in (1, 8):
            rng = np.random.default_rng(k * l)
            y = rng.standard_normal(k * l)
            recovered = invert_forward(make_diff("forward", k, l).apply(y), k, l)
            worst = max(worst, np.linalg.norm(recovered - y) / np.linalg.norm(y))
    ok = worst <= 1e-12
    report(5, ok, f"max roundtrip error {worst:.2e}")


def test_criterion_06_noise_calibration():
    rng = np.random.default_rng(99)
    worst = 0.0
    for offset in (0.0, 5.0):
        b = rng.standard_normal(4096) * 3.0
        noisy = add_noise(b, NoiseSpec(level=0.10, offset=offset, seed=1))
        realized = np.linalg.norm(noisy - b) / np.linalg.norm(b)
        worst = max(worst, abs(realized - 0.10))
    ok = worst <= 1e-12
    report(6, ok, f"max |realized - 0.10| = {worst:.2e}")


def test_criterion_07_discrepancy_termination_and_quality(desk):
    start = time.perf_counter()
    truth = desk["phantom"].values
    b, eps = desk_noisy(desk, "forward", seed=0)
    config = GBiTConfig(eta=1.01, epsilon=eps, max_iter=200, x_true=truth)
    _, rep_gbit = gbit_solve(desk["a_forward"], b, config)
    _, rep_lsqr = lsqr_solve(desk["a_forward"], b, iters=200, x_true=truth)
    elapsed = time.perf_counter() - start
    target = config.eta * eps
    # the LSQR iterate the discrepancy rule selects: the first to reach the target
    reached = np.flatnonzero(rep_lsqr.phi0s <= target)
    if reached.size == 0:
        report(7, False, f"no LSQR iterate reached the discrepancy target {target:.4f}")
    lsqr_stopped = float(rep_lsqr.rel_errors[reached[0]])
    lsqr_min = float(np.nanmin(rep_lsqr.rel_errors))
    final = rep_gbit.final_rel_error
    terminated = rep_gbit.termination == "discrepancy_met" and rep_gbit.iterations <= 200
    quality = final <= 1.1 * lsqr_stopped
    ok = terminated and quality and elapsed < 60.0
    report(
        7,
        ok,
        f"{rep_gbit.termination} after {rep_gbit.iterations} iterations, "
        f"final error {final:.4f} vs 1.1 x discrepancy-stopped LSQR (iterate "
        f"{reached[0] + 1}) {1.1 * lsqr_stopped:.4f}, ratio {final / lsqr_stopped:.3f}; "
        f"ratio to the best LSQR iterate {final / lsqr_min:.2f} (not asserted), {elapsed:.1f}s",
    )


def test_criterion_08_forward_beats_central(desk):
    truth = desk["phantom"].values
    wins = []
    for seed in range(5):
        finals = {}
        for model in ("forward", "central"):
            b, eps = desk_noisy(desk, model, seed)
            config = GBiTConfig(eta=1.01, epsilon=eps, max_iter=200, x_true=truth)
            _, rep = gbit_solve(desk[f"a_{model}"], b, config)
            finals[model] = rep.final_rel_error
        wins.append(finals["forward"] < finals["central"])
    ok = all(wins)
    report(8, ok, f"forward < central in {sum(wins)}/5 seeds")


def test_criterion_09_offset_suppression():
    phantom = make_phantom(PhantomSpec(size=256))
    geom = ProjectionGeometry(n_x=256, n_y=256, k=256, angles=[np.pi / 2.0])
    y = project(build_projector(geom), phantom).values
    op = make_diff("forward", 256, 1)
    b_clean = op.apply(y)
    wins = []
    for seed in range(5):
        b = add_noise(b_clean, NoiseSpec(level=0.10, offset=5.0, seed=[seed, 37]))
        eps = np.linalg.norm(b - b_clean)
        x_gbit, _ = gbit_solve(op, b, GBiTConfig(eta=1.01, epsilon=eps, max_iter=200))
        x_lsqr, _ = lsqr_solve(op, b, iters=200)
        wins.append(np.abs(x_gbit).mean() < np.abs(x_lsqr).mean())
    ok = all(wins)
    report(9, ok, f"regularized mean |y| below unregularized in {sum(wins)}/5 seeds")


def test_criterion_10_phase_retrieval_path(desk):
    geom = desk["geom"]
    # exactness on noiseless forward-model data
    y = project(desk["projector"], desk["phantom"]).values
    b_exact = make_diff("forward", geom.k, geom.l).apply(y)
    recovered = phase_retrieval_rhs(b_exact, geom.k, geom.l)
    exactness = np.linalg.norm(recovered - y) / np.linalg.norm(y)

    truth = desk["phantom"].values
    wins = []
    for seed in range(5):
        b, eps = desk_noisy(desk, "forward", seed)
        config = GBiTConfig(eta=1.01, epsilon=eps, max_iter=200)
        _, rep_direct = gbit_solve(desk["a_forward"], b, config)
        rhs = phase_retrieval_rhs(b, geom.k, geom.l)
        rhs_clean = phase_retrieval_rhs(desk["b_f_clean"], geom.k, geom.l)
        eps_pr = np.linalg.norm(rhs - rhs_clean)
        config_pr = GBiTConfig(eta=1.01, epsilon=eps_pr, max_iter=200)
        _, rep_pr = gbit_solve(desk["projector"], rhs, config_pr)
        wins.append(rep_pr.final_lambda > rep_direct.final_lambda)
    ok = exactness <= 1e-12 and all(wins)
    report(
        10,
        ok,
        f"noiseless roundtrip {exactness:.2e}, two-step weight above direct weight "
        f"in {sum(wins)}/5 seeds",
    )


def test_criterion_11_fbp_baseline():
    start = time.perf_counter()
    phantom = make_phantom(PhantomSpec(size=128))
    geom = standard_geometry(128, 180, 128)
    projector = build_projector(geom)
    sino = project(projector, phantom)
    recon = fbp_reconstruct(sino, geom, "ramp", projector=projector)
    n = 128
    c = np.arange(n) + 0.5 - n / 2.0
    yy, xx = np.meshgrid(c, c, indexing="ij")
    mask = xx**2 + yy**2 <= (n / 2.0) ** 2
    diff = (recon.as_matrix() - phantom.as_matrix())[mask]
    fbp_error = np.linalg.norm(diff) / np.linalg.norm(phantom.as_matrix()[mask])

    k = 256
    j = np.arange(k)
    q = np.sin(2 * np.pi * 5 * j / k) * np.sin(np.pi * j / (k - 1)) ** 2
    dq = make_diff("central", k, 1).apply(q)
    ramp_q = filter_sinogram(Sinogram(k=k, l=1, values=q), "ramp").values
    dpc_dq = filter_sinogram(Sinogram(k=k, l=1, values=dq), "dpc").values
    filter_error = np.linalg.norm(dpc_dq - ramp_q) / np.linalg.norm(ramp_q)
    elapsed = time.perf_counter() - start
    ok = fbp_error < 0.25 and filter_error <= 0.05 and elapsed < 10.0
    report(
        11,
        ok,
        f"reconstruction error {fbp_error:.3f} (< 0.25), filter consistency "
        f"{filter_error:.4f} (<= 0.05), {elapsed:.1f}s",
    )
