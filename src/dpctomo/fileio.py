"""Deterministic text file formats and the run manifest.

Images travel as a plain-text float file (3-line header: magic line,
n_x, n_y; then one value per line with 17 significant digits, column
major) plus a 16-bit binary graymap sidecar for viewing.  Sinograms use a
5-line header (magic, k, l, h, ordering tag); '#'-prefixed comment lines
are skipped on read.  The magic line of every file carries the run id of
the manifest that produced it ('-' for ad-hoc writes).

The exact float format is the one tests and pipelines compare; the
graymap is max-normalized and lossy by design.  The readers refuse a
malformed file with ``InputError``, a ``ValueError`` that names it.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
from dataclasses import dataclass, field, asdict

import numpy as np

from . import __version__
from .gbit import GBiTReport
from .projector import Image, Sinogram

IMAGE_MAGIC = "DPCTOMO-IMAGE-1"
SINO_MAGIC = "DPCTOMO-SINO-1"


class InputError(ValueError):
    """An input refused where it enters: a malformed or unusable file,
    named in the message."""


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _plain(path, what: str, text: str) -> None:
    """Refuse what Python's number parsers read but the writers never
    write: digit-group underscores and non-ASCII digits or spaces."""
    if not text.isascii() or "_" in text:
        raise InputError(f"{path}: {what} must be plain ASCII numerals without '_'")


def _positive(path, name: str, line: str, kind):
    """A header field read as ``kind`` (int or float), finite and above zero."""
    _plain(path, f"header field {name}", line)
    try:
        value = kind(line)
    except ValueError:
        value = 0
    if not 0 < value < np.inf:
        raise InputError(f"{path}: header field {name} must be a positive finite {kind.__name__}, "
                         f"got {line.strip()!r}")
    return value


def _values(path, text: str, count: int) -> np.ndarray:
    """The ``count`` data values, one per non-blank line; a malformed,
    missing or extra value, and NaN or inf, are refused where they enter."""
    _plain(path, "data values", text)  # once per file: a per-line check slows reads
    try:
        arr = np.array([float(line) for line in text.split("\n") if line.strip()],
                       dtype=np.float64)
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from None
    if arr.size != count:
        raise InputError(f"{path}: expected {count} data values, got {arr.size}")
    bad = np.flatnonzero(~np.isfinite(arr))
    if bad.size:
        raise InputError(
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
    # an undecodable byte reads as a lone surrogate, which _plain refuses
    with open(path, errors="surrogateescape") as fh:
        magic = fh.readline().split()
        if not magic or magic[0] != IMAGE_MAGIC:
            raise InputError(f"{path}: not an image file (bad magic line)")
        n_x = _positive(path, "n_x", fh.readline(), int)
        n_y = _positive(path, "n_y", fh.readline(), int)
        values = _values(path, fh.read(), n_x * n_y)
    return Image(n_x=n_x, n_y=n_y, values=values)


def write_image_pgm(path, image: Image) -> None:
    """16-bit binary graymap, max-normalized (viewing sidecar, lossy)."""
    rows = image.as_matrix()
    lo, hi = float(rows.min()), float(rows.max())
    span = hi - lo
    if span > 0.0:
        scaled = ((rows - lo) / span * 65535.0).round().astype(">u2")
    else:
        scaled = (rows * 0).astype(">u2")
    with open(path, "wb") as fh:
        fh.write(f"P5\n{image.n_x} {image.n_y}\n65535\n".encode())
        fh.write(scaled.tobytes())


def write_sinogram(path, sino: Sinogram, run_id: str = "-") -> None:
    with open(path, "w") as fh:
        fh.write(f"{SINO_MAGIC} {run_id}\n{sino.k}\n{sino.l}\n{_fmt(sino.h)}\n")
        fh.write("ordering=angle-major\n")
        fh.writelines(_fmt(v) + "\n" for v in sino.values)


def read_sinogram(path) -> Sinogram:
    with open(path, errors="surrogateescape") as fh:
        lines = (line for line in fh if not line.startswith("#"))
        header = list(itertools.islice(lines, 5))
        magic = header[0].split() if header else []
        if not magic or magic[0] != SINO_MAGIC:
            raise InputError(f"{path}: not a sinogram file (bad magic line)")
        if len(header) < 5:
            raise InputError(f"{path}: truncated header ({len(header)} of 5 lines)")
        _, k, l, h, ordering = header
        k, l = _positive(path, "k", k, int), _positive(path, "l", l, int)
        h, ordering = _positive(path, "h", h, float), ordering.strip()
        if ordering != "ordering=angle-major":
            raise InputError(f"{path}: unsupported ordering {ordering!r}")
        values = _values(path, "".join(lines), k * l)
    return Sinogram(k=k, l=l, values=values, h=h)


# the report CSV's columns, each with the IterationRecord field it holds
_REPORT_COLUMNS = (
    ("iter", "iteration"),
    ("phi0", "phi0"),
    ("phi_lambda", "phi_lambda"),
    ("lambda", "lam"),
    ("lambda_used", "lam_used"),
    ("rel_error", "rel_error"),
    ("residual", "residual"),
)


def write_report_csv(path, report: GBiTReport, run_id: str = "-") -> None:
    """Per-iteration trace; the rel_error and residual cells are empty
    when the run had no truth or did not track the true residual.
    ``lambda_used`` is the weight the iterate was solved with and
    ``lambda`` the next one (see ``IterationRecord``)."""
    with open(path, "w", newline="") as fh:
        fh.write(f"# manifest: {run_id}\n")
        writer = csv.writer(fh)
        writer.writerow([column for column, _ in _REPORT_COLUMNS])
        for rec in report.records:
            cells = (getattr(rec, name) for _, name in _REPORT_COLUMNS)
            writer.writerow(["" if value is None else _fmt(value) for value in cells])


def read_report_csv(path) -> list[dict]:
    """The trace by column name; an empty cell reads as None."""
    with open(path, errors="surrogateescape") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    _plain(path, "report values", "".join(lines[1:]))  # the header names hold '_'
    reader = csv.DictReader(lines)
    missing = [column for column, _ in _REPORT_COLUMNS if column not in (reader.fieldnames or ())]
    if missing:
        raise InputError(f"{path}: not a report, no column {missing[0]!r}")
    rows = []
    try:
        for row in reader:
            cells = {column: float(row[column]) if row[column] else None
                     for column, _ in _REPORT_COLUMNS}
            rows.append({**cells, "iter": int(row["iter"])})
    except ValueError as exc:
        raise InputError(f"{path}: record {len(rows) + 1}: {exc}") from None
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
        try:
            return RunManifest(**json.load(fh))
        except (TypeError, ValueError) as exc:  # not JSON, or not RunManifest's keys
            raise InputError(f"{path}: not a run manifest ({exc})") from exc
