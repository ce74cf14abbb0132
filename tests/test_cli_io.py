"""File formats, manifests, and the command-line surface.

CLI invocations go through ``python -m dpctomo`` in a subprocess so the
tests exercise argument parsing and exit codes exactly as a user would.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dpctomo.diffops import make_diff
from dpctomo.fileio import (
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
from dpctomo.gbit import GBiTReport, IterationRecord
from dpctomo.linops import compose
from dpctomo.projector import Image, Sinogram, build_projector, standard_geometry
from dpctomo.simlab import PhantomSpec, make_phantom


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
        report = GBiTReport(records, "max_iter", np.zeros(2), 4.0)
        path = tmp_path / "trace.csv"
        write_report_csv(path, report, run_id="r2")
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
        write_report_csv(path, GBiTReport(records, "max_iter", np.zeros(2), 4.0))
        assert path.read_text().splitlines()[1].endswith(",rel_error,residual")
        rows = read_report_csv(path)
        assert [row["residual"] for row in rows] == [r.residual for r in records]
        assert rows[0]["rel_error"] is None

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


def without_grid(manifest: dict) -> dict:
    config = {k: v for k, v in manifest["config"].items() if k not in ("n_x", "n_y")}
    return {**manifest, "config": config}


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
        expected = op.apply(make_phantom(PhantomSpec(size=16)).values)
        assert np.linalg.norm(sino.values - expected) <= 1e-12 * np.linalg.norm(expected)

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

    def test_malformed_phantom_is_io_error(self, tmp_path):
        phantom_path = tmp_path / "p.txt"
        phantom_path.write_text("DPCTOMO-IMAGE-1 -\n2\n2\n1.0\nnot-a-number\n0\n0\n")
        result = run_cli(
            "simulate", "--phantom", phantom_path, "--angles", 10, "--out", tmp_path / "s.sino",
        )
        assert result.returncode == 3


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
        np.testing.assert_array_equal(read_image(f"{prefix}.image.txt").values, x)
        manifest = read_manifest(f"{prefix}.manifest.json")
        assert manifest.command[-4:] == ["--max-iter", "40", "--out", str(prefix)]
        assert manifest.config["max_iter"] == 40 and manifest.config["eta"] is None

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
            ("manifest", lambda text: json.dumps({**json.loads(text), "bogus": 1})),
            ("manifest", lambda text: json.dumps(without_grid(json.loads(text)))),
        ],
        ids=["empty_sinogram", "truncated_sinogram_header", "unknown_manifest_key",
             "config_without_grid"],
    )
    def test_malformed_input_file_is_io_error(self, pipeline, tmp_path, target, edit):
        _, _, sino_path = pipeline
        files = {"sino": tmp_path / "bad.sino", "manifest": tmp_path / "bad.sino.manifest.json"}
        files["sino"].write_text(sino_path.read_text())
        files["manifest"].write_text(Path(manifest_path_for(sino_path)).read_text())
        files[target].write_text(edit(files[target].read_text()))
        result = run_cli(
            "reconstruct", "--sino", files["sino"], "--solver", "lsqr", "--out", tmp_path / "rec",
        )
        assert result.returncode == 3, result.stderr
        assert str(files[target]) in result.stderr
        assert "Traceback" not in result.stderr

    def test_missing_manifest_is_usage_error(self, tmp_path):
        sino_path = tmp_path / "loose.sino"
        write_sinogram(sino_path, Sinogram(k=4, l=3, values=np.ones(12)))
        result = run_cli(
            "reconstruct", "--sino", sino_path, "--solver", "lsqr", "--out", tmp_path / "x",
        )
        assert result.returncode == 2
        assert "manifest" in result.stderr
