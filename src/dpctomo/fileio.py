"""Deterministic text file formats and the run manifest.

Images travel as a plain-text float file (3-line header: magic line,
n_x, n_y; then one value per line with 17 significant digits, column
major) plus a 16-bit binary graymap sidecar for viewing.  Sinograms use a
5-line header (magic, k, l, h, ordering tag); '#'-prefixed comment lines
are skipped on read.  The magic line of every file carries the run id of
the manifest that produced it ('-' for ad-hoc writes).

The exact float format is the one tests and pipelines compare; the
graymap is max-normalized and lossy by design.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass, field, asdict

import numpy as np

from . import __version__
from .gbit import GBiTReport
from .projector import Image, Sinogram

IMAGE_MAGIC = "DPCTOMO-IMAGE-1"
SINO_MAGIC = "DPCTOMO-SINO-1"


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _finite(path, values: list[float]) -> np.ndarray:
    """The values as an array; NaN or inf is refused where it enters."""
    arr = np.asarray(values, dtype=np.float64)
    bad = np.flatnonzero(~np.isfinite(arr))
    if bad.size:
        raise ValueError(
            f"{path}: {bad.size} non-finite value(s); data value {bad[0]} is {arr[bad[0]]}"
        )
    return arr


def make_run_id(payload: dict) -> str:
    """Deterministic run id from the resolved configuration."""
    blob = json.dumps(payload, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def write_image(path, image: Image, run_id: str = "-") -> None:
    with open(path, "w") as fh:
        fh.write(f"{IMAGE_MAGIC} {run_id}\n{image.n_x}\n{image.n_y}\n")
        fh.writelines(_fmt(v) + "\n" for v in image.values)


def read_image(path) -> Image:
    with open(path) as fh:
        magic = fh.readline().split()
        if not magic or magic[0] != IMAGE_MAGIC:
            raise ValueError(f"{path}: not an image file (bad magic line)")
        n_x = int(fh.readline())
        n_y = int(fh.readline())
        values = _finite(path, [float(line) for line in fh if line.strip()])
    return Image(n_x=n_x, n_y=n_y, values=values)


def write_image_pgm(path, image: Image) -> None:
    """16-bit binary graymap, max-normalized (viewing sidecar, lossy)."""
    values = image.values
    lo, hi = float(values.min()), float(values.max())
    span = hi - lo
    if span > 0.0:
        scaled = ((values - lo) / span * 65535.0).round().astype(">u2")
    else:
        scaled = ((values * 0).astype(">u2"))
    rows = scaled.reshape(image.n_y, image.n_x, order="F")
    with open(path, "wb") as fh:
        fh.write(f"P5\n{image.n_x} {image.n_y}\n65535\n".encode())
        fh.write(rows.tobytes())


def write_sinogram(path, sino: Sinogram, run_id: str = "-") -> None:
    with open(path, "w") as fh:
        fh.write(f"{SINO_MAGIC} {run_id}\n{sino.k}\n{sino.l}\n{_fmt(sino.h)}\n")
        fh.write("ordering=angle-major\n")
        fh.writelines(_fmt(v) + "\n" for v in sino.values)


def read_sinogram(path) -> Sinogram:
    with open(path) as fh:
        lines = (line for line in fh if not line.startswith("#"))
        magic = next(lines).split()
        if not magic or magic[0] != SINO_MAGIC:
            raise ValueError(f"{path}: not a sinogram file (bad magic line)")
        k = int(next(lines))
        l = int(next(lines))
        h = float(next(lines))
        ordering = next(lines).strip()
        if ordering != "ordering=angle-major":
            raise ValueError(f"{path}: unsupported ordering {ordering!r}")
        values = _finite(path, [float(line) for line in lines if line.strip()])
    return Sinogram(k=k, l=l, values=values, h=h)


def write_report_csv(path, report: GBiTReport, run_id: str = "-") -> None:
    """Per-iteration trace; the rel_error and residual cells are empty
    when the run had no truth or did not track the true residual.
    ``lambda_used`` is the weight the iterate was solved with and
    ``lambda`` the next one (see ``IterationRecord``)."""
    with open(path, "w", newline="") as fh:
        fh.write(f"# manifest: {run_id}\n")
        writer = csv.writer(fh)
        writer.writerow(
            ["iter", "phi0", "phi_lambda", "lambda", "lambda_used", "rel_error", "residual"]
        )
        for rec in report.records:
            writer.writerow(
                [
                    rec.iteration,
                    _fmt(rec.phi0),
                    _fmt(rec.phi_lambda),
                    _fmt(rec.lam),
                    _fmt(rec.lam_used),
                    "" if rec.rel_error is None else _fmt(rec.rel_error),
                    "" if rec.residual is None else _fmt(rec.residual),
                ]
            )


def read_report_csv(path) -> list[dict]:
    rows = []
    with open(path) as fh:
        reader = csv.DictReader(line for line in fh if not line.startswith("#"))
        for row in reader:
            rows.append(
                {
                    "iter": int(row["iter"]),
                    "phi0": float(row["phi0"]),
                    "phi_lambda": float(row["phi_lambda"]),
                    "lambda": float(row["lambda"]),
                    "lambda_used": float(row["lambda_used"]),
                    "rel_error": float(row["rel_error"]) if row["rel_error"] else None,
                    "residual": float(row["residual"]) if row["residual"] else None,
                }
            )
    return rows


@dataclass
class RunManifest:
    """Provenance record shared by every file a command writes."""

    run_id: str
    command: list[str]
    config: dict
    seed: int | None = None
    version: str = __version__
    wall_clock: dict = field(default_factory=dict)
    outputs: list[str] = field(default_factory=list)
    extra: dict = field(default_factory=dict)


def manifest_path_for(output_path) -> str:
    return str(output_path) + ".manifest.json"


def write_manifest(path, manifest: RunManifest) -> None:
    with open(path, "w") as fh:
        json.dump(asdict(manifest), fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")


def read_manifest(path) -> RunManifest:
    with open(path) as fh:
        data = json.load(fh)
    return RunManifest(**data)
