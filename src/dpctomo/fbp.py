"""Analytic filtered back-projection baselines.

Two per-angle Fourier filters: the band-limited ramp ``|f|`` for
absorption data, and the phase filter ``sign(f) / (2 pi i)`` (the ramp
divided by the derivative symbol ``2 pi i f``) for detector-direction
derivative data.  Both act on real data, so each block is filtered with a
real FFT over the non-negative frequencies, and the inverse real FFT
returns a real signal by construction.  The zero-frequency bin of both
filters is zero, so the derivative filter's unrecoverable constant shows
up as a lost mean; phase reconstructions are therefore reported
mean-adjusted.

Back-projection reuses the algebraic projector's adjoint, so the analytic
baseline and the iterative solvers share one geometry definition.
"""

from __future__ import annotations

import numpy as np

from .projector import Image, OrbitProjector, ParallelProjector, ProjectionGeometry, Sinogram

FILTER_KINDS = ("ramp", "dpc")


def _padded_length(k: int) -> int:
    """The FFT length: the next power of two of at least 2k, so the
    linear convolution with the filter is not wrapped around."""
    p = 1
    while p < 2 * k:
        p *= 2
    return p


def _filtered_blocks(blocks: np.ndarray, h: float, kind: str) -> np.ndarray:
    """Filter each angle block over the zero-padded window (no truncation)."""
    if kind not in FILTER_KINDS:
        raise ValueError(f"unknown filter kind {kind!r}; expected one of {FILTER_KINDS}")
    padded = _padded_length(blocks.shape[1])
    freqs = np.fft.rfftfreq(padded, d=h)
    if kind == "ramp":
        symbol = freqs
    else:
        # irfft drops the imaginary part of the Nyquist bin, where this
        # symbol makes the real coefficient purely imaginary
        symbol = np.where(freqs > 0.0, 1.0 / (2.0 * np.pi * 1j), 0.0)
    return np.fft.irfft(np.fft.rfft(blocks, n=padded, axis=1) * symbol, n=padded, axis=1)


def filter_sinogram(sino: Sinogram, kind: str) -> Sinogram:
    """Apply the per-angle Fourier filter and truncate back to k samples."""
    filtered = _filtered_blocks(sino.as_blocks(), sino.h, kind)
    return Sinogram(k=sino.k, l=sino.l, values=filtered[:, : sino.k].ravel(), h=sino.h)


def fbp_reconstruct(
    sino: Sinogram, geom: ProjectionGeometry, kind: str,
    projector: ParallelProjector | OrbitProjector,
) -> Image:
    """Filter, back-project through the projector adjoint, and scale.

    The angle quadrature weight pi/l and the detector spacing h (the
    pixels are unit squares) turn the adjoint accumulation into the
    inverse-Radon normalization.  Derivative-filtered ("dpc")
    reconstructions are mean-adjusted because the filter zeroes the
    unrecoverable constant.
    """
    if (sino.k, sino.l, sino.h) != (geom.k, geom.l, geom.h):
        raise ValueError(
            f"sinogram layout k={sino.k}, l={sino.l}, h={sino.h} does not match "
            f"geometry k={geom.k}, l={geom.l}, h={geom.h}"
        )
    filtered = filter_sinogram(sino, kind)
    scale = np.pi * geom.h / geom.l
    values = projector.apply_transpose(filtered.values) * scale
    if kind == "dpc":
        values = values - values.mean()
    return Image(n_x=geom.n_x, n_y=geom.n_y, values=values)
