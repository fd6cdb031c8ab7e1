import json
from pathlib import Path

import pytest

from branchknot import cli

DATA = Path(__file__).resolve().parent.parent / "data"


def run(*argv):
    return cli.main(list(argv))


class TestAnalyze:
    def test_cusp(self, tmp_path, capsys):
        rc = run("analyze", "--input", str(DATA / "cusp.json"),
                 "--out-dir", str(tmp_path), "--json")
        assert rc == 0
        report = json.loads((tmp_path / "analyze.json").read_text())
        assert report["N"] == 2
        assert report["orders"] == [1, None, 2, None]
        assert report["branch_points"] == [[0.0, 0.0]]
        assert report["symplectic_min_plus"] > 0

    def test_flat(self, capsys):
        rc = run("analyze", "--input", str(DATA / "flat_plane.json"), "--json")
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["N"] == 1
        assert report["branch_points"] == []

    def test_order_mismatch_exit_code(self, capsys):
        rc = run("analyze", "--input", str(DATA / "bad_orders.json"))
        assert rc == 2
        assert "OrderMismatch" in capsys.readouterr().err

    def test_unknown_tolerance_exit_code(self, capsys):
        rc = run("analyze", "--input", str(DATA / "cusp.json"),
                 "--tol", "bogus_name=1")
        assert rc == 2
        err = capsys.readouterr().err
        assert "bogus_name" in err
        assert "conf_tol" in err and "newton_tol" in err

    def test_known_tolerance_accepted(self, capsys):
        rc = run("analyze", "--input", str(DATA / "cusp.json"), "--json",
                 "--tol", "conf-tol=1e-9", "--tol", "newton_tol=1e-11")
        assert rc == 0


class TestDeform:
    def test_zero_scale_exit_code(self, capsys):
        rc = run("deform", "--input", str(DATA / "cusp.json"),
                 "--t", "0", "--seed", "1")
        assert rc == 3

    def test_member_files(self, tmp_path, capsys):
        rc = run("deform", "--input", str(DATA / "four_function.json"),
                 "--t", "0.05", "--seed", "1", "--out-dir", str(tmp_path))
        assert rc == 0
        member = json.loads((tmp_path / "member.json").read_text())
        assert member["gauss_invariance_residual"] <= 1e-10
        params = json.loads((tmp_path / "params.json").read_text())
        assert params["orientation"] == "+"
        assert len(params["A"]) == 2 and len(params["B"]) == 3

    def test_minus_orientation(self, tmp_path, capsys):
        rc = run("deform", "--input", str(DATA / "four_function.json"),
                 "--t", "0.05", "--seed", "2", "--orientation", "-",
                 "--out-dir", str(tmp_path))
        assert rc == 0
        member = json.loads((tmp_path / "member.json").read_text())
        assert member["gauss_invariance_residual"] <= 1e-10
        assert member["params"]["orientation"] == "-"

    def test_deterministic_outputs(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run("deform", "--input", str(DATA / "four_function.json"),
                       "--t", "0.05", "--seed", "7", "--out-dir", str(out)) == 0
        assert (a / "member.json").read_bytes() == (b / "member.json").read_bytes()
        assert (a / "params.json").read_bytes() == (b / "params.json").read_bytes()


class TestDoublePoints:
    def test_with_explicit_params(self, tmp_path, capsys):
        params = {"A": [[0, 0], [0, 0]], "B": [[-0.0025, 0], [0, 0], [0, 0]],
                  "orientation": "+", "t": 0.05}
        pfile = tmp_path / "params.json"
        pfile.write_text(json.dumps(params))
        rc = run("double-points", "--input", str(DATA / "cusp.json"),
                 "--params", str(pfile), "--out-dir", str(tmp_path), "--json")
        assert rc == 0
        dps = json.loads((tmp_path / "double_points.json").read_text())
        assert len(dps) == 1
        assert dps[0]["residual"] <= 1e-12

    def test_branch_point_region_exit_code(self, capsys):
        rc = run("double-points", "--input", str(DATA / "cusp.json"))
        assert rc == 2
        assert "BranchPointInRegion" in capsys.readouterr().err


class TestKnot:
    def test_cusp_outputs(self, tmp_path, capsys):
        rc = run("knot", "--input", str(DATA / "cusp.json"),
                 "--eta", "0.01", "--out-dir", str(tmp_path))
        assert rc == 0
        report = json.loads((tmp_path / "knot_report.json").read_text())
        assert report["n_strands"] == 2
        assert report["crossing_sum"] == 3
        assert abs(report["linking_gauss"] - 3) <= 0.1
        csv_lines = (tmp_path / "knot.csv").read_text().splitlines()
        assert csv_lines[0] == "theta,x1,x2,x3,x4,z_re,z_im"
        assert len(csv_lines) > 1000
        braid = json.loads((tmp_path / "braid.json").read_text())
        assert braid["n_strands"] == 2

    def test_flat_single_strand(self, tmp_path, capsys):
        rc = run("knot", "--input", str(DATA / "flat_plane.json"),
                 "--eta", "0.5", "--out-dir", str(tmp_path))
        assert rc == 0
        report = json.loads((tmp_path / "knot_report.json").read_text())
        assert report["n_strands"] == 1
        assert report["crossing_sum"] == 0

    def test_non_monotone_exit_code(self, tmp_path, capsys):
        rc = run("knot", "--input", str(DATA / "mixed_strong.json"),
                 "--eta", "0.14", "--out-dir", str(tmp_path))
        assert rc == 5
        assert "NonMonotoneFiberAngle" in capsys.readouterr().err


class TestVerify:
    def test_cusp_with_explicit_params(self, tmp_path, capsys):
        params = {"A": [[0, 0], [0, 0]], "B": [[-0.0025, 0], [0, 0], [0, 0]],
                  "orientation": "+", "t": 0.05}
        pfile = tmp_path / "params.json"
        pfile.write_text(json.dumps(params))
        rc = run("verify", "--input", str(DATA / "cusp.json"),
                 "--params", str(pfile), "--eta", "0.01",
                 "--out-dir", str(tmp_path))
        assert rc == 0
        out = capsys.readouterr().out
        assert "D=1 e=3 N=2" in out and "OK" in out
        report = json.loads((tmp_path / "verify.json").read_text())
        assert report["identity_ok"] is True

    def test_flat_control(self, capsys):
        rc = run("verify", "--input", str(DATA / "flat_plane.json"),
                 "--eta", "0.5")
        assert rc == 0
        assert "D=0 e=0 N=1" in capsys.readouterr().out
