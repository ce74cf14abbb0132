"""File formats, manifests, and the command-line surface.

CLI invocations go through ``python -m dpctomo`` in a subprocess so the
tests exercise argument parsing and exit codes exactly as a user would.
"""

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dpctomo import cli, projector
from dpctomo.cli import build_parser
from dpctomo.diffops import invert_forward, make_diff
from dpctomo.fbp import fbp_reconstruct
from dpctomo.fileio import (
    InputError,
    RunManifest,
    manifest_path_for,
    read_image,
    read_manifest,
    read_report_csv,
    read_sinogram,
    write_image,
    write_image_pgm,
    write_manifest,
    write_report_csv,
    write_sinogram,
)
from dpctomo.gbit import GBiTConfig, GBiTReport, IterationRecord
from dpctomo.linops import compose
from dpctomo.projector import Image, Sinogram, build_projector, standard_geometry
from dpctomo.simlab import PhantomSpec, make_phantom


def assert_close(actual, expected):
    """Equal up to the rounding in which two projector layouts differ."""
    assert np.linalg.norm(actual - expected) <= 1e-12 * np.linalg.norm(expected)


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "dpctomo", *map(str, args)],
        capture_output=True,
        text=True,
    )


class TestFileFormats:
    def test_image_roundtrip_is_lossless(self, tmp_path):
        rng = np.random.default_rng(0)
        values = np.concatenate([rng.standard_normal(30) * 1e8, rng.standard_normal(30) * 1e-12])
        img = Image(n_x=6, n_y=10, values=values)
        path = tmp_path / "img.txt"
        write_image(path, img, run_id="abc123")
        back = read_image(path)
        assert (back.n_x, back.n_y) == (6, 10)
        np.testing.assert_array_equal(back.values, values)

    def test_image_magic_carries_run_id(self, tmp_path):
        img = Image(n_x=2, n_y=2, values=np.zeros(4))
        path = tmp_path / "img.txt"
        write_image(path, img, run_id="deadbeef")
        assert path.read_text().splitlines()[0] == "DPCTOMO-IMAGE-1 deadbeef"

    def test_pgm_header_and_size(self, tmp_path):
        img = Image(n_x=3, n_y=2, values=np.arange(6.0))
        path = tmp_path / "img.pgm"
        write_image_pgm(path, img)
        data = path.read_bytes()
        assert data.startswith(b"P5\n3 2\n65535\n")
        assert len(data) == len(b"P5\n3 2\n65535\n") + 2 * 6

    def test_sinogram_roundtrip_and_comments(self, tmp_path):
        sino = Sinogram(k=3, l=2, values=np.linspace(-1, 1, 6), h=0.5)
        path = tmp_path / "m.sino"
        write_sinogram(path, sino, run_id="r1")
        text = path.read_text().splitlines()
        text.insert(2, "# a comment line")
        path.write_text("\n".join(text) + "\n")
        back = read_sinogram(path)
        assert (back.k, back.l, back.h) == (3, 2, 0.5)
        np.testing.assert_array_equal(back.values, sino.values)

    def test_report_csv_roundtrip(self, tmp_path):
        records = [
            IterationRecord(1, 2.5, 3.5, 0.125, 1.0, None, None),
            IterationRecord(2, 1.25, 1.75, 0.5, 0.125, 0.375, None),
        ]
        report = GBiTReport(records, "max_iter")
        path = tmp_path / "trace.csv"
        write_report_csv(path, report, run_id="r2")
        assert path.read_bytes() == (
            b"# manifest: r2\n"
            b"iter,phi0,phi_lambda,lambda,lambda_used,rel_error,residual\r\n"
            b"1,2.5,3.5,0.125,1,,\r\n"
            b"2,1.25,1.75,0.5,0.125,0.375,\r\n"
        )
        rows = read_report_csv(path)
        assert rows[0]["rel_error"] is None
        assert rows[1] == {
            "iter": 2, "phi0": 1.25, "phi_lambda": 1.75, "lambda": 0.5, "lambda_used": 0.125,
            "rel_error": 0.375, "residual": None,
        }

    def test_report_csv_residual_roundtrip(self, tmp_path):
        records = [
            IterationRecord(1, 2.5, 3.5, 0.125, 1.0, None, 3.5000000000000004),
            IterationRecord(2, 1.25, 1.75, 0.5, 0.125, 0.375, 1.7499999999999998),
        ]
        path = tmp_path / "trace.csv"
        write_report_csv(path, GBiTReport(records, "max_iter"))
        assert path.read_text().splitlines()[1].endswith(",rel_error,residual")
        rows = read_report_csv(path)
        assert [row["residual"] for row in rows] == [r.residual for r in records]
        assert rows[0]["rel_error"] is None

    def test_report_csv_bad_cell_rejected_naming_the_file(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("iter,phi0,phi_lambda,lambda,lambda_used,rel_error,residual\n"
                        "1,2.5,abc,0.125,1,,\n")
        with pytest.raises(InputError, match=re.escape(f"{path}: record 1: ") + ".*'abc'"):
            read_report_csv(path)

    def test_report_csv_missing_column_rejected_naming_the_file(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("# manifest: -\niter,phi0,lambda,lambda_used,rel_error,residual\n"
                        "1,2.5,0.125,1,,\n")
        with pytest.raises(InputError, match=re.escape(f"{path}: ") + ".*'phi_lambda'"):
            read_report_csv(path)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_nonfinite_values_rejected_naming_the_file(self, tmp_path, bad):
        img_path = tmp_path / "img.txt"
        write_image(img_path, Image(n_x=2, n_y=2, values=np.arange(4.0)))
        lines = img_path.read_text().splitlines()
        lines[4] = bad
        img_path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="img.txt.*non-finite.*data value 1 "):
            read_image(img_path)
        sino_path = tmp_path / "m.sino"
        write_sinogram(sino_path, Sinogram(k=3, l=2, values=np.arange(6.0)))
        lines = sino_path.read_text().splitlines()
        lines[-1] = bad
        sino_path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="m.sino.*non-finite.*data value 5 "):
            read_sinogram(sino_path)

    @pytest.mark.parametrize("h", ["nan", "inf", "-inf", "0", "-1", "abc"])
    def test_bad_spacing_rejected_naming_the_file(self, tmp_path, h):
        path = tmp_path / "m.sino"
        write_sinogram(path, Sinogram(k=3, l=2, values=np.arange(6.0)))
        path.write_text(with_line(path.read_text(), 3, h))
        with pytest.raises(ValueError, match=f"m.sino: header field h .*{h!r}"):
            read_sinogram(path)

    # Python's float and int read a digit-group underscore, non-ASCII
    # digits and non-ASCII spaces; the writers never write them
    @pytest.mark.parametrize("bad", ["1_5", "\u0663", "2\u00a0"])
    def test_foreign_numerals_rejected_naming_the_file(self, tmp_path, bad):
        img_path = tmp_path / "img.txt"
        for index, what in ((1, "header field n_x"), (2, "header field n_y"), (4, "data values")):
            write_image(img_path, Image(n_x=2, n_y=2, values=np.arange(4.0)))
            img_path.write_text(with_line(img_path.read_text(), index, bad), encoding="utf-8")
            with pytest.raises(ValueError, match=f"img.txt: {what} must be plain ASCII"):
                read_image(img_path)
        sino_path = tmp_path / "m.sino"
        for index, what in ((1, "header field k"), (2, "header field l"), (3, "header field h"),
                            (-1, "data values")):
            write_sinogram(sino_path, Sinogram(k=3, l=2, values=np.arange(6.0)))
            sino_path.write_text(with_line(sino_path.read_text(), index, bad), encoding="utf-8")
            with pytest.raises(ValueError, match=f"m.sino: {what} must be plain ASCII"):
                read_sinogram(sino_path)
        csv_path = tmp_path / "trace.csv"
        record = IterationRecord(1, 2.5, 3.5, 0.125, 1.0, None, None)
        write_report_csv(csv_path, GBiTReport([record], "max_iter"))
        csv_path.write_text(csv_path.read_text().replace("3.5", bad), encoding="utf-8")
        with pytest.raises(ValueError, match="trace.csv: report values must be plain ASCII"):
            read_report_csv(csv_path)

    def test_undecodable_bytes_rejected_naming_the_file(self, tmp_path):
        img_path, sino_path = tmp_path / "img.txt", tmp_path / "m.sino"
        img_path.write_bytes(b"DPCTOMO-IMAGE-1 -\n1\n1\n\xe9\n")
        with pytest.raises(ValueError, match="img.txt: data values must be plain ASCII"):
            read_image(img_path)
        sino_path.write_bytes(b"DPCTOMO-SINO-1 -\n1\n\xff\n1\nordering=angle-major\n0\n")
        with pytest.raises(ValueError, match="m.sino: header field l must be plain ASCII"):
            read_sinogram(sino_path)

    def test_foreign_text_in_comments_and_run_ids_is_read(self, tmp_path):
        path = tmp_path / "m.sino"
        write_sinogram(path, Sinogram(k=3, l=2, values=np.arange(6.0)), run_id="run_\u00e9")
        lines = path.read_text(encoding="utf-8").splitlines()
        lines.insert(7, "# noted by Jos\u00e9, dose_2")
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        np.testing.assert_array_equal(read_sinogram(path).values, np.arange(6.0))

    def test_manifest_roundtrip(self, tmp_path):
        manifest = RunManifest(
            run_id="m1", command=["phantom"], config={"size": 8}, seed=3,
            wall_clock={"build": 0.1}, outputs=["a"], extra={"epsilon_noise": 1.5},
        )
        path = tmp_path / "out.manifest.json"
        write_manifest(path, manifest)
        back = read_manifest(path)
        assert back == manifest

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("NOT-AN-IMAGE\n2\n2\n0\n0\n0\n0\n")
        with pytest.raises(ValueError):
            read_image(path)


def with_line(text: str, index: int, line: str) -> str:
    lines = text.splitlines()
    lines[index] = line
    return "\n".join(lines) + "\n"


def without_grid(manifest: dict) -> dict:
    config = {k: v for k, v in manifest["config"].items() if k not in ("n_x", "n_y")}
    return {**manifest, "config": config}


def with_grid(manifest: dict, n: int) -> dict:
    return {**manifest, "config": {**manifest["config"], "n_x": n, "n_y": n}}


def constant_sinogram(path, value: float) -> None:
    """4 detectors, 2 angles, every value ``value``, on a 4x4 grid."""
    write_sinogram(path, Sinogram(k=4, l=2, values=np.full(8, value)))
    write_manifest(manifest_path_for(path),
                   RunManifest(run_id="-", command=[], config={"n_x": 4, "n_y": 4}))


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One phantom + simulate run shared by the reconstruct tests."""
    root = tmp_path_factory.mktemp("cli")
    phantom_path = root / "phantom.txt"
    sino_path = root / "data.sino"
    r1 = run_cli("phantom", "--size", 24, "--out", phantom_path)
    assert r1.returncode == 0, r1.stderr
    r2 = run_cli(
        "simulate", "--phantom", phantom_path, "--angles", 30, "--model", "forward",
        "--omega", 0.2, "--noise", 0.1, "--seed", 7, "--out", sino_path,
    )
    assert r2.returncode == 0, r2.stderr
    return root, phantom_path, sino_path


class TestPhantomCommand:
    def test_writes_roundtrippable_files(self, tmp_path):
        out = tmp_path / "ph.txt"
        result = run_cli("phantom", "--size", 64, "--out", out)
        assert result.returncode == 0
        img = read_image(out)
        lib = make_phantom(PhantomSpec(size=64))
        np.testing.assert_array_equal(img.values, lib.values)
        assert (tmp_path / "ph.txt.pgm").exists()
        manifest = read_manifest(manifest_path_for(out))
        assert str(out) in manifest.outputs

    def test_too_small_is_usage_error(self, tmp_path):
        result = run_cli("phantom", "--size", 7, "--out", tmp_path / "x.txt")
        assert result.returncode == 2
        assert "size" in result.stderr

    def test_value_error_of_a_package_function_propagates(self, tmp_path, monkeypatch):
        # exit 3 is for refused inputs only; a defect keeps its traceback
        def defect(spec):
            raise ValueError("a defect, not a bad input")

        monkeypatch.setattr(cli, "make_phantom", defect)
        with pytest.raises(ValueError, match="a defect"):
            cli.main(["phantom", "--size", "8", "--out", str(tmp_path / "p.txt")])

    def test_variants_differ(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        assert run_cli("phantom", "--size", 32, "--variant", "modified", "--out", a).returncode == 0
        assert run_cli("phantom", "--size", 32, "--variant", "classic", "--out", b).returncode == 0
        va, vb = read_image(a).values, read_image(b).values
        assert set(np.round(va, 12)) != set(np.round(vb, 12))


class TestSimulateCommand:
    def test_noiseless_matches_library(self, tmp_path):
        phantom_path = tmp_path / "p.txt"
        run_cli("phantom", "--size", 16, "--out", phantom_path)
        sino_path = tmp_path / "s.sino"
        result = run_cli(
            "simulate", "--phantom", phantom_path, "--angles", 12,
            "--noise", 0, "--omega", 0, "--out", sino_path,
        )
        assert result.returncode == 0, result.stderr
        sino = read_sinogram(sino_path)
        geom = standard_geometry(16, 12)
        op = compose(make_diff("forward", 16, 12), build_projector(geom))
        assert_close(sino.values, op.apply(make_phantom(PhantomSpec(size=16)).values))

    def test_same_seed_byte_identical(self, tmp_path):
        phantom_path = tmp_path / "p.txt"
        run_cli("phantom", "--size", 16, "--out", phantom_path)
        outs = []
        for name in ("s1.sino", "s2.sino"):
            path = tmp_path / name
            result = run_cli(
                "simulate", "--phantom", phantom_path, "--angles", 10,
                "--seed", 5, "--out", path,
            )
            assert result.returncode == 0
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]

    def test_omega_out_of_range_is_usage_error(self, tmp_path):
        phantom_path = tmp_path / "p.txt"
        run_cli("phantom", "--size", 16, "--out", phantom_path)
        result = run_cli(
            "simulate", "--phantom", phantom_path, "--angles", 10,
            "--omega", 0.6, "--out", tmp_path / "s.sino",
        )
        assert result.returncode == 2
        assert "omega" in result.stderr

    @pytest.mark.parametrize(
        "flag, value", [("--noise", "nan"), ("--noise", "inf"), ("--offset", "inf"),
                        ("--offset", "nan")],
    )
    def test_nonfinite_noise_is_usage_error(self, tmp_path, flag, value):
        # it would otherwise write an all-NaN sinogram
        phantom_path = tmp_path / "p.txt"
        run_cli("phantom", "--size", 16, "--out", phantom_path)
        result = run_cli(
            "simulate", "--phantom", phantom_path, "--angles", 8,
            flag, value, "--out", tmp_path / "s.sino",
        )
        assert result.returncode == 2
        assert "usage error" in result.stderr and f"{flag} must be finite" in result.stderr
        assert not (tmp_path / "s.sino").exists()

    def test_missing_phantom_is_io_error(self, tmp_path):
        result = run_cli(
            "simulate", "--phantom", tmp_path / "nope.txt", "--angles", 10,
            "--out", tmp_path / "s.sino",
        )
        assert result.returncode == 3

    def test_zero_detectors_is_usage_error(self, tmp_path):
        phantom_path = tmp_path / "p.txt"
        run_cli("phantom", "--size", 16, "--out", phantom_path)
        result = run_cli(
            "simulate", "--phantom", phantom_path, "--angles", 10,
            "--detectors", 0, "--out", tmp_path / "s.sino",
        )
        assert result.returncode == 2
        assert "usage error" in result.stderr and "detector" in result.stderr

    def test_one_detector_is_usage_error(self, tmp_path):
        phantom_path = tmp_path / "p.txt"
        run_cli("phantom", "--size", 16, "--out", phantom_path)
        result = run_cli(
            "simulate", "--phantom", phantom_path, "--angles", 10,
            "--detectors", 1, "--out", tmp_path / "s.sino",
        )
        assert result.returncode == 2
        assert "usage error" in result.stderr and "--detectors must be >= 2" in result.stderr
        assert not (tmp_path / "s.sino").exists()

    def test_one_pixel_wide_image_without_detectors_is_io_error(self, tmp_path):
        # the detector count defaults to the image width
        phantom_path = tmp_path / "narrow.txt"
        phantom_path.write_text("DPCTOMO-IMAGE-1 -\n1\n3\n0\n1\n0\n")
        result = run_cli(
            "simulate", "--phantom", phantom_path, "--angles", 4, "--out", tmp_path / "s.sino",
        )
        assert result.returncode == 3
        assert str(phantom_path) in result.stderr and "1 pixel wide" in result.stderr
        assert "--detectors" in result.stderr and "Traceback" not in result.stderr
        assert not (tmp_path / "s.sino").exists()

    def test_all_zero_phantom_with_noise_is_io_error_naming_the_file(self, tmp_path):
        # relative noise scales to the norm of the data, which is zero for
        # an all-zero image, and for a corner pixel that both rays of one
        # angle miss
        corner = np.zeros(256)
        corner[0] = 1.0
        cases = {
            "zero": (Image(n_x=8, n_y=8, values=np.zeros(64)), ["--angles", 6]),
            "corner": (Image(n_x=16, n_y=16, values=corner), ["--angles", 1, "--detectors", 2]),
        }
        for name, (image, geometry) in cases.items():
            phantom_path = tmp_path / f"{name}.txt"
            write_image(phantom_path, image, "-")
            sino_path = tmp_path / f"{name}.sino"
            result = run_cli("simulate", "--phantom", phantom_path, *geometry, "--out", sino_path)
            assert result.returncode == 3, (name, result.stderr)
            assert str(phantom_path) in result.stderr, name
            assert "Traceback" not in result.stderr, name
            assert not sino_path.exists(), name
            result = run_cli(
                "simulate", "--phantom", phantom_path, *geometry, "--noise", 0,
                "--out", sino_path,
            )
            assert result.returncode == 0, (name, result.stderr)

    def test_overflowing_data_is_io_error_naming_the_phantom(self, tmp_path):
        # reconstruct refuses a sinogram of inf values: the noise norm of
        # 1.5e307 data overflows (its projections do not), and 1e308
        # values overflow when projected
        for value, noise in [(1.5e307, 0.05), (1e308, 0.0)]:
            phantom_path = tmp_path / f"{value:g}.txt"
            write_image(phantom_path, Image(n_x=8, n_y=8, values=np.full(64, value)), "-")
            sino_path = tmp_path / f"{value:g}.sino"
            result = run_cli(
                "simulate", "--phantom", phantom_path, "--angles", 4, "--noise", noise,
                "--out", sino_path,
            )
            assert result.returncode == 3, (value, result.stderr)
            assert str(phantom_path) in result.stderr and "overflow" in result.stderr, value
            assert "Traceback" not in result.stderr and "Warning" not in result.stderr, value
            assert not list(tmp_path.glob("*.sino*")), value
        # the noise norm of 1e300 data is finite, so they are simulated
        write_image(tmp_path / "big.txt", Image(n_x=8, n_y=8, values=np.full(64, 1e300)), "-")
        result = run_cli("simulate", "--phantom", tmp_path / "big.txt", "--angles", 4,
                         "--noise", 0.05, "--out", tmp_path / "s.sino")
        assert result.returncode == 0, result.stderr

    def test_malformed_phantom_is_io_error(self, tmp_path):
        cases = {
            "bad_value": "DPCTOMO-IMAGE-1 -\n2\n2\n1.0\nnot-a-number\n0\n0\n",
            "cut_after_magic": "DPCTOMO-IMAGE-1 -\n",
            "cut_after_n_x": "DPCTOMO-IMAGE-1 -\n2\n",
            "negative_grid": "DPCTOMO-IMAGE-1 -\n-2\n-2\n0\n0\n0\n0\n",
            "missing_values": "DPCTOMO-IMAGE-1 -\n2\n2\n0\n0\n",
            "underscore_value": "DPCTOMO-IMAGE-1 -\n2\n2\n1_5\n0\n0\n0\n",
            "non_ascii_n_x": "DPCTOMO-IMAGE-1 -\n\u0662\n2\n0\n0\n0\n0\n",
        }
        for name, text in cases.items():
            phantom_path = tmp_path / f"{name}.txt"
            phantom_path.write_text(text, encoding="utf-8")
            result = run_cli(
                "simulate", "--phantom", phantom_path, "--angles", 10,
                "--out", tmp_path / "s.sino",
            )
            assert result.returncode == 3, (name, result.stderr)
            assert str(phantom_path) in result.stderr, name
            assert "Traceback" not in result.stderr, name


class TestReconstructCommand:
    def test_lsqr_on_noiseless_data_converges(self, tmp_path):
        phantom_path = tmp_path / "p.txt"
        run_cli("phantom", "--size", 12, "--out", phantom_path)
        sino_path = tmp_path / "s.sino"
        run_cli(
            "simulate", "--phantom", phantom_path, "--angles", 16,
            "--noise", 0, "--omega", 0, "--out", sino_path,
        )
        prefix = tmp_path / "rec"
        result = run_cli(
            "reconstruct", "--sino", sino_path, "--solver", "lsqr",
            "--max-iter", 200, "--truth", phantom_path, "--out", prefix,
        )
        assert result.returncode == 0, result.stderr
        rows = read_report_csv(f"{prefix}.report.csv")
        b_norm = np.linalg.norm(read_sinogram(sino_path).values)
        assert rows[-1]["phi0"] <= 1e-8 * b_norm

    def test_nan_sinogram_is_io_error(self, pipeline, tmp_path):
        # fbp would otherwise spread one NaN over the whole image
        _, _, sino_path = pipeline
        lines = sino_path.read_text().splitlines()
        lines[-3] = "nan"
        bad = tmp_path / "bad.sino"
        bad.write_text("\n".join(lines) + "\n")
        (tmp_path / "bad.sino.manifest.json").write_text(
            (sino_path.parent / (sino_path.name + ".manifest.json")).read_text()
        )
        prefix = tmp_path / "rec"
        result = run_cli("reconstruct", "--sino", bad, "--solver", "fbp", "--out", prefix)
        assert result.returncode == 3
        assert "bad.sino" in result.stderr and "non-finite" in result.stderr
        assert not (tmp_path / "rec.image.txt").exists()

    def test_nonfinite_solver_trace_is_numerical_failure(self, pipeline, tmp_path):
        # a huge initial weight pushed further up by the secant step
        # overflows to inf, which the solver refuses
        _, _, sino_path = pipeline
        result = run_cli(
            "reconstruct", "--sino", sino_path, "--solver", "gbit",
            "--epsilon", "1e12", "--lambda0", "1e300", "--out", tmp_path / "rec",
        )
        assert result.returncode == 4
        assert "numerical failure" in result.stderr and "non-finite" in result.stderr
        assert "Traceback" not in result.stderr

    def test_gbit_with_manifest_epsilon_terminates(self, pipeline):
        root, phantom_path, sino_path = pipeline
        prefix = root / "gbit"
        result = run_cli(
            "reconstruct", "--sino", sino_path, "--solver", "gbit",
            "--epsilon", "manifest", "--truth", phantom_path, "--out", prefix,
        )
        assert result.returncode == 0, result.stderr
        manifest = read_manifest(f"{prefix}.manifest.json")
        assert manifest.extra["termination"] == "discrepancy_met"
        assert manifest.extra["breakdown"] is None
        rows = read_report_csv(f"{prefix}.report.csv")
        assert rows[-1]["rel_error"] is not None
        assert all(row["lambda"] > 0.0 for row in rows)
        assert rows[0]["lambda_used"] == 1.0
        assert all(row["lambda_used"] == prev["lambda"] for prev, row in zip(rows, rows[1:]))

    def test_lsqr_zero_iterations_is_usage_error(self, pipeline, tmp_path):
        _, _, sino_path = pipeline
        result = run_cli(
            "reconstruct", "--sino", sino_path, "--solver", "lsqr", "--max-iter", 0,
            "--out", tmp_path / "rec",
        )
        assert result.returncode == 2
        assert "usage error" in result.stderr and "max_iter" in result.stderr
        assert not (tmp_path / "rec.image.txt").exists()

    @pytest.mark.parametrize(
        "flag, value",
        [("--eta", "nan"), ("--eta", "inf"), ("--lambda0", "nan"), ("--lambda0", "inf"),
         ("--epsilon", "inf")],
    )
    def test_nonfinite_solver_setting_is_usage_error(self, pipeline, tmp_path, flag, value):
        # the solver trace would go non-finite (exit 4) instead
        _, _, sino_path = pipeline
        settings = {"--epsilon": "manifest", flag: value}
        result = run_cli(
            "reconstruct", "--sino", sino_path, "--solver", "gbit",
            *[item for pair in settings.items() for item in pair], "--out", tmp_path / "rec",
        )
        assert result.returncode == 2
        assert "usage error" in result.stderr and f"{flag[2:]} must be finite" in result.stderr
        assert not (tmp_path / "rec.image.txt").exists()

    def test_gbit_classic_without_epsilon_is_usage_error(self, pipeline):
        root, _, sino_path = pipeline
        result = run_cli(
            "reconstruct", "--sino", sino_path, "--solver", "gbit", "--out", root / "x",
        )
        assert result.returncode == 2
        assert "epsilon" in result.stderr

    def test_cli_matches_library_solve(self, pipeline):
        root, _, sino_path = pipeline
        prefix = root / "lsqr_eq"
        result = run_cli(
            "reconstruct", "--sino", sino_path, "--solver", "lsqr",
            "--max-iter", 40, "--out", prefix,
        )
        assert result.returncode == 0, result.stderr
        sino = read_sinogram(sino_path)
        geom = standard_geometry(24, sino.l)
        op = compose(make_diff("forward", sino.k, sino.l), build_projector(geom))
        from dpctomo.gbit import lsqr_solve

        x, _ = lsqr_solve(op, sino.values, iters=40)
        # the CLI's orbit projector rounds the products differently
        assert_close(read_image(f"{prefix}.image.txt").values, x)
        manifest = read_manifest(f"{prefix}.manifest.json")
        assert manifest.command[-4:] == ["--max-iter", "40", "--out", str(prefix)]
        assert manifest.config["max_iter"] == 40 and manifest.config["eta"] is None

    def test_fbp_phase_retrieval_matches_library(self, pipeline):
        # phase retrieval undoes the forward difference, then filters
        # with the ramp
        root, _, sino_path = pipeline
        prefix = root / "fbp_pr"
        result = run_cli(
            "reconstruct", "--sino", sino_path, "--solver", "fbp",
            "--model", "phase-retrieval", "--out", prefix,
        )
        assert result.returncode == 0, result.stderr
        sino = read_sinogram(sino_path)
        profile = Sinogram(k=sino.k, l=sino.l, values=invert_forward(sino.values, sino.k, sino.l))
        geom = standard_geometry(24, sino.l)
        image = fbp_reconstruct(profile, geom, "ramp", projector=build_projector(geom))
        assert_close(read_image(f"{prefix}.image.txt").values, image.values)

    def test_reconstruct_is_deterministic(self, pipeline):
        root, _, sino_path = pipeline
        blobs = []
        for name in ("d1", "d2"):
            prefix = root / name
            result = run_cli(
                "reconstruct", "--sino", sino_path, "--solver", "gbit",
                "--epsilon", "manifest", "--max-iter", 30, "--out", prefix,
            )
            assert result.returncode == 0
            blobs.append(
                (prefix.with_suffix(".image.txt"), (root / f"{name}.image.txt").read_bytes())
            )
        assert blobs[0][1] == blobs[1][1]

    def test_fbp_warns_on_solver_flags(self, pipeline):
        root, _, sino_path = pipeline
        result = run_cli(
            "reconstruct", "--sino", sino_path, "--solver", "fbp",
            "--eta", 1.05, "--out", root / "fbp",
        )
        assert result.returncode == 0, result.stderr
        assert "warning" in result.stderr and "--eta" in result.stderr

    def test_fbp_warns_that_it_ignores_the_truth(self, pipeline, tmp_path):
        _, phantom_path, sino_path = pipeline
        malformed = tmp_path / "malformed.txt"
        malformed.write_text("not an image\n")
        images = []
        # fbp never opens the truth: a missing or malformed file changes
        # nothing, and an ignored flag stays out of the run id the image stamps
        for name, truth in (("none", []), ("real", ["--truth", phantom_path]),
                            ("missing", ["--truth", tmp_path / "missing.txt"]),
                            ("malformed", ["--truth", malformed])):
            result = run_cli(
                "reconstruct", "--sino", sino_path, "--solver", "fbp", *truth,
                "--out", tmp_path / name,
            )
            assert result.returncode == 0, result.stderr
            warnings = [line for line in result.stderr.splitlines() if "warning" in line]
            assert len(warnings) == (1 if truth else 0) and all("--truth" in w for w in warnings)
            images.append(tuple((tmp_path / f"{name}{suffix}").read_bytes()
                                for suffix in (".image.txt", ".image.pgm")))
        assert images[0] == images[1] == images[2] == images[3]

    def test_lsqr_warns_once_on_the_flags_it_does_not_read(self, pipeline, tmp_path):
        _, _, sino_path = pipeline
        result = run_cli(
            "reconstruct", "--sino", sino_path, "--solver", "lsqr", "--eta", 3,
            "--scheme", "alternative", "--lambda0", 5, "--max-iter", 3, "--out", tmp_path / "rec",
        )
        assert result.returncode == 0, result.stderr
        (warning,) = [line for line in result.stderr.splitlines() if "warning" in line]
        assert all(flag in warning for flag in ("--eta", "--scheme", "--lambda0"))
        assert "--max-iter" not in warning

    def test_phase_retrieval_model_runs(self, pipeline):
        root, _, sino_path = pipeline
        result = run_cli(
            "reconstruct", "--sino", sino_path, "--solver", "gbit",
            "--model", "phase-retrieval", "--epsilon", "manifest",
            "--max-iter", 60, "--out", root / "pr",
        )
        assert result.returncode == 0, result.stderr

    @pytest.mark.parametrize(
        "target, edit",
        [
            ("sino", lambda text: ""),
            ("sino", lambda text: "".join(text.splitlines(keepends=True)[:3])),
            ("sino", lambda text: with_line(text, 1, "abc")),
            ("sino", lambda text: "".join(text.splitlines(keepends=True)[:-3])),
            ("sino", lambda text: with_line(text, 3, "nan")),
            ("sino", lambda text: with_line(text, 3, "inf")),
            ("sino", lambda text: with_line(text, 2, "3_0")),
            ("sino", lambda text: with_line(text, 5, "\u0663")),
            ("manifest", lambda text: json.dumps({**json.loads(text), "bogus": 1})),
            ("manifest", lambda text: json.dumps(without_grid(json.loads(text)))),
            ("manifest", lambda text: json.dumps(with_grid(json.loads(text), -2))),
        ],
        ids=["empty_sinogram", "truncated_sinogram_header", "k_not_an_integer",
             "missing_values", "nan_spacing", "inf_spacing", "underscore_l",
             "non_ascii_value", "unknown_manifest_key",
             "config_without_grid", "negative_grid"],
    )
    def test_malformed_input_file_is_io_error(self, pipeline, tmp_path, target, edit):
        _, _, sino_path = pipeline
        files = {"sino": tmp_path / "bad.sino", "manifest": tmp_path / "bad.sino.manifest.json"}
        files["sino"].write_text(sino_path.read_text())
        files["manifest"].write_text(Path(manifest_path_for(sino_path)).read_text())
        files[target].write_text(edit(files[target].read_text()), encoding="utf-8")
        result = run_cli(
            "reconstruct", "--sino", files["sino"], "--solver", "lsqr", "--out", tmp_path / "rec",
        )
        assert result.returncode == 3, result.stderr
        assert str(files[target]) in result.stderr
        assert "Traceback" not in result.stderr

    def test_one_detector_sinogram_is_io_error_naming_the_file(self, pipeline, tmp_path):
        # the difference models need two detectors per angle; phase
        # retrieval undoes the difference and needs none
        _, _, sino_path = pipeline
        bad = tmp_path / "k1.sino"
        write_sinogram(bad, Sinogram(k=1, l=30, values=np.linspace(1.0, 2.0, 30)), "-")
        (tmp_path / "k1.sino.manifest.json").write_text(
            Path(manifest_path_for(sino_path)).read_text()
        )
        for solver, model in [("lsqr", "forward"), ("gbit", "central"), ("fbp", "forward")]:
            result = run_cli(
                "reconstruct", "--sino", bad, "--solver", solver, "--model", model,
                "--epsilon", 1, "--out", tmp_path / "rec",
            )
            assert result.returncode == 3, (solver, model, result.stderr)
            assert str(bad) in result.stderr and "Traceback" not in result.stderr
            assert not (tmp_path / "rec.image.txt").exists()
        result = run_cli(
            "reconstruct", "--sino", bad, "--solver", "fbp", "--model", "phase-retrieval",
            "--out", tmp_path / "rec",
        )
        assert result.returncode == 0, result.stderr

    def test_truth_whose_norm_is_zero_or_inf_is_io_error_naming_the_file(self, pipeline, tmp_path):
        # the error trace is relative to the truth's norm, which is zero for
        # an all-zero image and overflows to inf for 1e307 pixels (a tiny
        # truth is traced: TestTinyData)
        _, _, sino_path = pipeline
        for value in (0.0, 1e307):
            truth = tmp_path / f"{value:g}.txt"
            write_image(truth, Image(n_x=24, n_y=24, values=np.full(576, value)), "-")
            for solver in ("gbit", "lsqr"):
                result = run_cli(
                    "reconstruct", "--sino", sino_path, "--solver", solver, "--epsilon",
                    "manifest", "--max-iter", 5, "--truth", truth, "--out", tmp_path / "rec",
                )
                assert result.returncode == 3, (value, solver, result.stderr)
                assert str(truth) in result.stderr and "Traceback" not in result.stderr
                assert "Warning" not in result.stderr, (value, solver)
                assert not (tmp_path / "rec.image.txt").exists()

    def test_truth_far_below_the_iterate_is_traced_without_overflow(self, pipeline, tmp_path):
        # against unit data, a 1e-200 truth leaves errors near 1e200, whose
        # squares overflow in the truth's units
        _, phantom_path, sino_path = pipeline
        truth = tmp_path / "tiny.txt"
        tiny = read_image(phantom_path).values * 1e-200
        write_image(truth, Image(n_x=24, n_y=24, values=tiny), "-")
        for solver, flags in (("gbit", ["--epsilon", "manifest"]), ("lsqr", [])):
            result = run_cli(
                "reconstruct", "--sino", sino_path, "--solver", solver, *flags,
                "--max-iter", 5, "--truth", truth, "--out", tmp_path / solver,
            )
            assert result.returncode == 0, (solver, result.stderr)
            assert "Warning" not in result.stderr, solver
            x = read_image(tmp_path / f"{solver}.image.txt").values
            expected = np.linalg.norm(x - tiny) / np.linalg.norm(tiny * 1e200) * 1e200
            final = read_report_csv(tmp_path / f"{solver}.report.csv")[-1]["rel_error"]
            assert final == pytest.approx(expected, rel=1e-12), solver

    @pytest.mark.parametrize("h", ["nan", "inf"])
    def test_fbp_refuses_nonfinite_spacing(self, pipeline, tmp_path, h):
        # the filter and the back-projection scale would spread it over
        # every pixel
        _, _, sino_path = pipeline
        bad = tmp_path / "bad.sino"
        bad.write_text(with_line(sino_path.read_text(), 3, h))
        (tmp_path / "bad.sino.manifest.json").write_text(
            Path(manifest_path_for(sino_path)).read_text()
        )
        result = run_cli("reconstruct", "--sino", bad, "--solver", "fbp", "--out", tmp_path / "rec")
        assert result.returncode == 3
        assert str(bad) in result.stderr and "header field h " in result.stderr
        assert not (tmp_path / "rec.image.txt").exists()

    def test_nonfinite_image_is_numerical_failure_writing_nothing(self, tmp_path):
        # the filter overflows data near the float range to nan, and
        # read_image would refuse the image
        for value, model in [(1e308, "forward"), (4e307, "phase-retrieval")]:
            sino = tmp_path / f"{model}.sino"
            constant_sinogram(sino, value)
            result = run_cli(
                "reconstruct", "--sino", sino, "--solver", "fbp", "--model", model,
                "--out", tmp_path / "rec",
            )
            assert result.returncode == 4, (model, result.stderr)
            assert "non-finite image" in result.stderr and "Traceback" not in result.stderr
            assert not list(tmp_path.glob("rec*"))

    def test_solve_that_overflows_is_numerical_failure_without_warnings(self, tmp_path):
        # the data of a ±8e306 image are finite, but the filter's spectrum
        # and the phase-retrieval iterate overflow (at ±3e306 the iterate
        # stays finite under some roundings of the products)
        phantom, sino = tmp_path / "huge.txt", tmp_path / "huge.sino"
        write_image(phantom, Image(n_x=8, n_y=8, values=np.tile([8e306, -8e306], 32)), "-")
        result = run_cli("simulate", "--phantom", phantom, "--angles", 8, "--noise", 0,
                         "--out", sino)
        assert result.returncode == 0, result.stderr
        for flags in (["fbp"], ["gbit", "--model", "phase-retrieval", "--epsilon", 1]):
            result = run_cli("reconstruct", "--sino", sino, "--solver", *flags,
                             "--out", tmp_path / "rec")
            assert result.returncode == 4, (flags, result.stderr)
            assert "non-finite image" in result.stderr, flags
            assert "Warning" not in result.stderr, (flags, result.stderr)
            assert not list(tmp_path.glob("rec*"))

    def test_overflowing_phase_retrieval_data_is_io_error_naming_the_file(self, tmp_path):
        # undoing the forward difference sums each block to beyond 1.8e308
        sino = tmp_path / "huge.sino"
        constant_sinogram(sino, 1e308)
        for solver in ("gbit", "lsqr", "fbp"):
            result = run_cli(
                "reconstruct", "--sino", sino, "--solver", solver, "--model", "phase-retrieval",
                "--epsilon", 1, "--out", tmp_path / "rec",
            )
            assert result.returncode == 3, (solver, result.stderr)
            assert str(sino) in result.stderr and "Traceback" not in result.stderr
            assert not list(tmp_path.glob("rec*"))

    def test_data_whose_norm_overflows_is_io_error_for_the_krylov_solvers(self, tmp_path):
        # each sinogram's values are finite (near 1e308, or 1e307) but its
        # norm is not; fbp never takes that norm
        phantom = tmp_path / "huge.txt"
        write_image(phantom, Image(n_x=8, n_y=8, values=np.full(64, 1.5e307)), "-")
        simulated = tmp_path / "simulated.sino"
        result = run_cli("simulate", "--phantom", phantom, "--angles", 4, "--noise", 0,
                         "--out", simulated)
        assert result.returncode == 0, result.stderr
        # ±1e307 alternating over 8 detectors and 64 angles: the norm is
        # 1e307 * sqrt(512), while each block's spectrum and every
        # back-projected sum stay finite
        alternating = tmp_path / "alternating.sino"
        write_sinogram(alternating, Sinogram(k=8, l=64, values=np.tile([1e307, -1e307], 256)))
        write_manifest(manifest_path_for(alternating),
                       RunManifest(run_id="-", command=[], config={"n_x": 8, "n_y": 8}))
        for sino in (simulated, alternating):
            for solver in ("gbit", "lsqr"):
                result = run_cli(
                    "reconstruct", "--sino", sino, "--solver", solver, "--epsilon", 1e290,
                    "--out", tmp_path / "rec",
                )
                assert result.returncode == 3, (sino, solver, result.stderr)
                assert str(sino) in result.stderr and "Traceback" not in result.stderr
                assert "Warning" not in result.stderr, (sino, solver)
                assert not list(tmp_path.glob("rec*"))
        result = run_cli("reconstruct", "--sino", alternating, "--solver", "fbp",
                         "--out", tmp_path / "rec")
        assert result.returncode == 0, result.stderr
        assert "Warning" not in result.stderr
        assert np.abs(read_image(tmp_path / "rec.image.txt").values).max() > 1e305

    def test_non_numeric_manifest_epsilon_is_io_error_naming_the_file(self, pipeline, tmp_path):
        _, _, sino_path = pipeline
        bad = tmp_path / "bad.sino"
        bad.write_text(sino_path.read_text())
        manifest = json.loads(Path(manifest_path_for(sino_path)).read_text())
        for value in ("large", [1.0], float("nan")):
            manifest["extra"]["epsilon_noise"] = value
            Path(manifest_path_for(bad)).write_text(json.dumps(manifest))
            result = run_cli(
                "reconstruct", "--sino", bad, "--solver", "gbit", "--epsilon", "manifest",
                "--out", tmp_path / "rec",
            )
            assert result.returncode == 3, (value, result.stderr)
            assert manifest_path_for(bad) in result.stderr and "Traceback" not in result.stderr

    def test_lsqr_default_cap_is_the_solver_default(self, pipeline, tmp_path):
        _, _, sino_path = pipeline
        prefix = tmp_path / "rec"
        result = run_cli("reconstruct", "--sino", sino_path, "--solver", "lsqr", "--out", prefix)
        assert result.returncode == 0, result.stderr
        assert len(read_report_csv(f"{prefix}.report.csv")) == GBiTConfig.max_iter == 200

    def test_missing_manifest_is_usage_error(self, tmp_path):
        sino_path = tmp_path / "loose.sino"
        write_sinogram(sino_path, Sinogram(k=4, l=3, values=np.ones(12)))
        result = run_cli(
            "reconstruct", "--sino", sino_path, "--solver", "lsqr", "--out", tmp_path / "x",
        )
        assert result.returncode == 2
        assert "manifest" in result.stderr


def run_in(directory, monkeypatch, *argv):
    """Run the CLI in-process in ``directory``, so relative paths keep the
    run ids free of the directory's name."""
    monkeypatch.chdir(directory)
    assert cli.main(list(map(str, argv))) == 0


def file_bytes(directory) -> dict:
    """Every file's bytes, manifests without their timings."""
    files = {}
    for path in sorted(Path(directory).iterdir()):
        if path.name.endswith(".json"):
            manifest = json.loads(path.read_text())
            manifest.pop("wall_clock")
            files[path.name] = json.dumps(manifest)
        else:
            files[path.name] = path.read_bytes()
    return files


def run_every_command(directory, monkeypatch, detectors):
    """phantom, simulate, and reconstruct with each solver and model."""
    run_in(directory, monkeypatch, "phantom", "--size", 20, "--out", "p.txt")
    run_in(directory, monkeypatch, "simulate", "--phantom", "p.txt", "--angles", 24,
           "--detectors", detectors, "--out", "s.sino")
    recon = ("reconstruct", "--sino", "s.sino", "--solver")
    for model in ("forward", "central", "phase-retrieval"):
        run_in(directory, monkeypatch, *recon, "fbp", "--model", model, "--out", f"fbp-{model}")
        run_in(directory, monkeypatch, *recon, "gbit", "--model", model, "--epsilon", "manifest",
               "--truth", "p.txt", "--out", f"gbit-{model}")
    run_in(directory, monkeypatch, *recon, "lsqr", "--max-iter", 10, "--truth", "p.txt",
           "--out", "lsqr")


def file_values(directory) -> dict:
    """The values of every image and sinogram file, and each report's
    iteration count."""
    values = {}
    for path in sorted(Path(directory).iterdir()):
        if path.name.endswith(".txt"):
            values[path.name] = read_image(path).values
        elif path.name.endswith(".sino"):
            values[path.name] = read_sinogram(path).values
        elif path.name.endswith(".csv"):
            values[path.name] = len(read_report_csv(path))
    return values


class TestRayMajorCommands:
    """Every command solves once, so it stores W ray major, as the
    orbit projector: the representative angle blocks and the pixel maps
    that expand them.  None assembles the transpose of W."""

    @pytest.mark.parametrize("detectors", [20, 23])
    def test_write_the_numbers_of_the_stored_transpose(self, tmp_path, detectors, monkeypatch):
        # 20 detectors on the 20^2 grid meet the orbit rule, whose products
        # round differently; 23 do not, and every file keeps its bytes
        orbit, stored_t = tmp_path / "orbit", tmp_path / "stored_t"
        for directory in (orbit, stored_t):
            directory.mkdir()
            if directory == stored_t:
                monkeypatch.setattr(cli, "OrbitProjector", projector.ParallelProjector)
            run_every_command(directory, monkeypatch, detectors)
        if detectors == 23:
            assert file_bytes(orbit) == file_bytes(stored_t)
            return
        actual, expected = file_values(orbit), file_values(stored_t)
        assert actual.keys() == expected.keys()
        # gbit on the central model runs to its 200-step cap, deep in
        # LSQR's semi-convergence, which amplifies the rounding to 5.5e-7
        assert expected["gbit-central.report.csv"] == 200
        for name, values in expected.items():
            if isinstance(values, int):
                assert actual[name] == values, name
            elif name != "gbit-central.image.txt":
                assert_close(actual[name], values)

    def test_no_command_assembles_the_transpose(self, tmp_path, monkeypatch):
        def refuse(*args):
            raise AssertionError("a CLI command assembled the transpose of W")

        monkeypatch.setattr(projector, "_assemble_weights", refuse)
        run_every_command(tmp_path, monkeypatch, 23)

    def test_traces_a_quarter_of_the_angles(self, tmp_path, monkeypatch):
        # at 128^2 x 180 angles 0 .. 45 represent all 180, in each command
        traced = []

        def trace_angle(geom, theta, work, rays):
            traced.append(theta)
            return trace(geom, theta, work, rays)

        trace = projector._trace_angle
        monkeypatch.setattr(projector, "_trace_angle", trace_angle)
        run_in(tmp_path, monkeypatch, "phantom", "--size", 128, "--out", "p.txt")
        run_in(tmp_path, monkeypatch, "simulate", "--phantom", "p.txt", "--angles", 180,
               "--out", "s.sino")
        assert sorted(set(traced)) == list(standard_geometry(128, 180).angles[:46])
        traced.clear()
        run_in(tmp_path, monkeypatch, "reconstruct", "--sino", "s.sino", "--solver", "fbp",
               "--out", "fbp")
        assert len(set(traced)) == 46


class TestTinyData:
    def test_tiny_pipeline_is_the_unit_pipeline_scaled(self, tmp_path, monkeypatch):
        # 2^-660 pixels give data near 1e-199, whose plain norms underflow
        # to zero: the noise, its norm and every reconstruction scale exactly
        unit = make_phantom(PhantomSpec(size=16))
        scale = 2.0 ** -660
        for name, factor in (("unit", 1.0), ("tiny", scale)):
            directory = tmp_path / name
            directory.mkdir()
            write_image(directory / "p.txt", Image(16, 16, unit.values * factor), "-")
            run_in(directory, monkeypatch, "simulate", "--phantom", "p.txt", "--angles", 20,
                   "--out", "s.sino")
            run_in(directory, monkeypatch, "reconstruct", "--sino", "s.sino", "--solver",
                   "lsqr", "--max-iter", 10, "--truth", "p.txt", "--out", "lsqr")
            run_in(directory, monkeypatch, "reconstruct", "--sino", "s.sino", "--solver",
                   "gbit", "--epsilon", "manifest", "--truth", "p.txt", "--out", "gbit")

        def read(name, file):
            directory = tmp_path / name
            if file == "s.sino":
                return read_sinogram(directory / file).values
            if file.endswith(".csv"):
                return [(r["phi0"], r["phi_lambda"], r["rel_error"])
                        for r in read_report_csv(directory / file)]
            return read_image(directory / file).values

        assert (read("tiny", "s.sino") / scale).tobytes() == read("unit", "s.sino").tobytes()
        for solver in ("lsqr", "gbit"):
            tiny = read("tiny", f"{solver}.image.txt")
            assert np.abs(tiny).max() > 0.0, solver
            assert (tiny / scale).tobytes() == read("unit", f"{solver}.image.txt").tobytes()
            tiny_trace = [(phi0 / scale, phi / scale, error)
                          for phi0, phi, error in read("tiny", f"{solver}.report.csv")]
            assert tiny_trace == read("unit", f"{solver}.report.csv"), solver
        unit_eps, tiny_eps = (
            read_manifest(manifest_path_for(tmp_path / name / "s.sino")).extra["epsilon_noise"]
            for name in ("unit", "tiny")
        )
        assert tiny_eps / scale == unit_eps


def option_flags(command: str) -> list[str]:
    """The options of one command's parser, in the order they were added."""
    (commands,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return [a.option_strings[0] for a in commands.choices[command]._actions if a.dest != "help"]


class TestManifests:
    @pytest.mark.parametrize(
        "command, phases",
        [
            ("phantom", ["build", "write"]),
            ("simulate", ["build", "simulate", "write"]),
            ("reconstruct", ["build", "solve", "write"]),
        ],
    )
    def test_echoes_every_flag_and_times_every_phase(self, pipeline, tmp_path, command, phases):
        _, phantom_path, sino_path = pipeline
        out = str(tmp_path / "out")
        argv = {
            "phantom": ["phantom", "--size", "8", "--variant", "classic", "--out", out],
            "simulate": [
                "simulate", "--phantom", str(phantom_path), "--angles", "6", "--detectors", "20",
                "--model", "central", "--omega", "0.1", "--noise", "0.05", "--offset", "0.5",
                "--seed", "3", "--out", out,
            ],
            "reconstruct": [
                "reconstruct", "--sino", str(sino_path), "--solver", "gbit", "--model", "forward",
                "--eta", "1.5", "--epsilon", "manifest", "--lambda0", "0.5", "--maxcounter", "2",
                "--max-iter", "5", "--scheme", "classic", "--truth", str(phantom_path),
                "--out", out,
            ],
        }[command]
        # the run id's input: the echoed flags and the resolved values
        config = {
            "phantom": {"size": 8, "variant": "classic"},
            "simulate": {
                "phantom": str(phantom_path), "angles": 6, "detectors": 20, "model": "central",
                "omega": 0.1, "noise": 0.05, "offset": 0.5, "seed": 3,
                "n_x": 24, "n_y": 24, "h": 1.0,
            },
            "reconstruct": {
                "sino": str(sino_path), "solver": "gbit", "model": "forward", "eta": 1.5,
                "epsilon": "manifest", "lambda0": 0.5, "maxcounter": 2, "max_iter": 5,
                "scheme": "classic", "truth": str(phantom_path), "n_x": 24, "n_y": 24,
            },
        }[command]
        assert argv[1::2] == option_flags(command)  # every flag, in the parser's order
        result = run_cli(*argv)
        assert result.returncode == 0, result.stderr
        manifest = read_manifest(manifest_path_for(out))
        assert manifest.command == argv
        assert manifest.config == config
        assert sorted(manifest.wall_clock) == phases
