"""Dense oracle for acceptance criterion 7 (see ``docs/criterion7.md``).

Rebuilds criterion 7's problem (64x64 Shepp-Logan phantom, 90 angles,
64 detectors, forward model ``A = D_f R``, 10 % noise drawn with seed
``[seed, 53]``), takes one dense SVD of ``A`` and prints, for noise seeds
0-4 and model-mixing weights omega in {0.2, 0}:

* how the noise norm epsilon splits between range(A) and its complement,
  and the least-squares residual floor ``||(I - P) b||``;
* the error of full-space Tikhonov at the exact discrepancy root
  ``||A x_lam - b|| = eta * epsilon`` and of the best fixed weight;
* the error of the LSQR iterate that the discrepancy rule selects (the
  first with residual <= eta * epsilon) and of the best LSQR iterate,
  which is chosen with the truth in hand;
* GBiT's final error, the weight its returned iterate was solved with
  (``records[-1].lam_used``) and the next weight recorded on the last
  ``IterationRecord`` (``records[-1].lam``), each checked by rerunning
  the same number of iterations with that weight fixed.

Run from the repository root::

    PYTHONPATH=src python docs/criterion7_oracle.py

The dense matrix comes from ``densify`` in ``tests/oracles.py``.

The SVD of the 5760 x 4096 matrix takes about 50 s on 2 cores.
"""

import sys
import time
from pathlib import Path

import numpy as np
from scipy.optimize import brentq, minimize_scalar

from dpctomo.diffops import make_diff
from dpctomo.gbit import GBiTConfig, gbit_solve, lsqr_solve
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

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from oracles import densify  # noqa: E402

SEEDS = range(5)
OMEGAS = (0.2, 0.0)
ETA = 1.01
LSQR_ITERS = 200


class TikhonovOracle:
    """Full-space Tikhonov x_lam = argmin ||A x - b||^2 + lam ||x||^2 in
    closed form from the thin SVD of A (the weight GBiT's projected solve
    uses, with damping sqrt(lam))."""

    def __init__(self, a):
        u, s, vt = np.linalg.svd(a, full_matrices=False)
        keep = s > s[0] * max(a.shape) * np.finfo(float).eps
        self.u, self.s, self.vt = u[:, keep], s[keep], vt[keep]
        self.rank = int(keep.sum())

    def range_norms(self, vec):
        """Norms of the parts of ``vec`` inside range(A) and outside it."""
        inside = np.linalg.norm(self.u.T @ vec)
        return inside, np.sqrt(max(np.linalg.norm(vec) ** 2 - inside**2, 0.0))

    def residual(self, beta, floor, lam):
        return np.sqrt(np.sum((lam / (self.s**2 + lam) * beta) ** 2) + floor**2)

    def solution(self, beta, lam):
        return self.vt.T @ (self.s / (self.s**2 + lam) * beta)


def main():
    phantom = make_phantom(PhantomSpec(size=64))
    truth = phantom.values
    geom = standard_geometry(64, 90)
    projector = build_projector(geom)
    a_op = compose(make_diff("forward", geom.k, geom.l), projector)

    start = time.perf_counter()
    oracle = TikhonovOracle(densify(a_op))
    print(f"dense SVD of the {a_op.rows} x {a_op.cols} matrix D_f R: rank {oracle.rank}, "
          f"{time.perf_counter() - start:.1f} s")

    header = (
        f"{'omega':>5} {'seed':>4} | {'eps':>6} {'eps_in':>6} {'eps_out':>7} {'floor':>6} | "
        f"{'lam_dp':>6} {'tik_dp':>6} | {'lam_opt':>7} {'res':>5} {'tik_opt':>7} | "
        f"{'it_dp':>5} {'lsqr_dp':>7} | {'it_min':>6} {'res':>5} {'lsqr_min':>8} | "
        f"{'it':>3} {'gbit':>6} {'lam_used':>8} {'lam_rec':>7} {'d_used':>7} {'d_rec':>7} | "
        f"{'/lsqr_dp':>8} {'/lsqr_min':>9} {'tik_dp/lsqr_min':>15}"
    )
    print(header)
    print("-" * len(header))
    for omega in OMEGAS:
        b_f_clean, _ = generate_dpc_data(
            phantom, geom, ModelErrorSpec(omega=omega), projector=projector
        )
        clean = b_f_clean.values
        for seed in SEEDS:
            b = add_noise(clean, NoiseSpec(level=0.10, seed=[seed, 53]))
            eps = float(np.linalg.norm(b - clean))
            target = ETA * eps
            eps_in, eps_out = oracle.range_norms(b - clean)
            beta = oracle.u.T @ b
            _, floor = oracle.range_norms(b)

            # residual(lam) rises monotonically from the floor to ||b||
            lam_dp = np.exp(brentq(
                lambda t: oracle.residual(beta, floor, np.exp(t)) - target, -30.0, 30.0
            ))
            tik_dp = relative_error(oracle.solution(beta, lam_dp), truth)
            best = minimize_scalar(
                lambda t: relative_error(oracle.solution(beta, np.exp(t)), truth),
                bounds=(-10.0, 10.0), method="bounded", options={"xatol": 1e-4},
            )
            lam_opt = float(np.exp(best.x))
            res_opt = oracle.residual(beta, floor, lam_opt)

            _, rep_lsqr = lsqr_solve(a_op, b, iters=LSQR_ITERS, x_true=truth)
            errors = rep_lsqr.rel_errors
            residuals = np.array([r.phi0 for r in rep_lsqr.records])
            reached = np.flatnonzero(residuals <= target)
            it_dp = int(reached[0]) if reached.size else None
            lsqr_dp = errors[it_dp] if reached.size else np.nan
            it_min = int(np.nanargmin(errors))

            config = GBiTConfig(eta=ETA, epsilon=eps, max_iter=200, x_true=truth)
            x_gbit, rep = gbit_solve(a_op, b, config)
            gbit = rep.records[-1].rel_error
            lam_used = rep.records[-1].lam_used
            lam_rec = rep.records[-1].lam
            gaps = []
            for lam in (lam_used, lam_rec):
                fixed = GBiTConfig(update_scheme="fixed", lambda0=lam, max_iter=rep.iterations)
                x_fixed, _ = gbit_solve(a_op, b, fixed)
                gaps.append(np.linalg.norm(x_fixed - x_gbit) / np.linalg.norm(x_gbit))

            print(
                f"{omega:5.2f} {seed:4d} | {eps:6.2f} {eps_in:6.2f} {eps_out:7.2f} {floor:6.2f} | "
                f"{lam_dp:6.3f} {tik_dp:6.4f} | {lam_opt:7.3f} {res_opt:5.2f} {best.fun:7.4f} | "
                f"{'-' if it_dp is None else it_dp + 1:>5} {lsqr_dp:7.4f} | "
                f"{it_min + 1:6d} {residuals[it_min]:5.2f} {errors[it_min]:8.4f} | "
                f"{rep.iterations:3d} {gbit:6.4f} {lam_used:8.3f} {lam_rec:7.3f} "
                f"{gaps[0]:7.1e} {gaps[1]:7.1e} | "
                f"{gbit / lsqr_dp:8.3f} {gbit / errors[it_min]:9.3f} {tik_dp / errors[it_min]:15.3f}"
            )
    print(
        "\neps_in / eps_out: noise norm inside / outside range(A); floor: ||(I - P) b||, the "
        "least-squares residual floor.\nlam_dp, tik_dp: full-space Tikhonov at the discrepancy "
        f"root (residual = {ETA} eps); lam_opt, tik_opt: best fixed weight, chosen with the truth."
        "\nit_dp, lsqr_dp: first LSQR iterate with residual <= eta eps; it_min, lsqr_min: best "
        "LSQR iterate, chosen with the truth (iterations counted from 1).\nlam_used: "
        "records[-1].lam_used; "
        "lam_rec: records[-1].lam; d_used, d_rec: relative gap between GBiT's iterate and a "
        "fixed-weight run at that weight.\n/lsqr_dp, /lsqr_min: GBiT's error over lsqr_dp and lsqr_min."
    )


if __name__ == "__main__":
    main()
