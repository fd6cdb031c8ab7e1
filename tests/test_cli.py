import json
from pathlib import Path

import pytest

from branchknot import cli, knot

DATA = Path(__file__).resolve().parent.parent / "data"


def run(*argv):
    return cli.main(list(argv))


def non_conformal(tmp_path, conf_tol=None) -> str:
    # f1' = 2z, f2' = 1, f3' = 3z^2, f4' = 0: f1'f2' + f3'f4' = 2z, so the
    # conformality residual is 2.0
    data = {"fprime": [[[0, 0], [2, 0]], [[1, 0]], [[0, 0], [0, 0], [3, 0]], []]}
    if conf_tol is not None:
        data["conf_tol"] = conf_tol
    path = tmp_path / "non_conformal.json"
    path.write_text(json.dumps(data))
    return str(path)


# documents a command cannot read, written to the test's directory
BAD_DOCS = {"no_fprime.json": {"conf_tol": 1e-10}, "a_list.json": [1, 2],
            "no_A.json": {"B": [[0, 0]] * 3}, "a_file": {}}


class TestBadFiles:
    @pytest.mark.parametrize("argv, named", [
        (["analyze", "--input", "{tmp}/missing.json"], ["missing.json"]),
        (["analyze", "--input", "{tmp}/no_fprime.json"],
         ["no_fprime.json", "'fprime'"]),
        (["analyze", "--input", "{tmp}/a_list.json"],
         ["a_list.json", "'fprime'"]),
        (["knot", "--input", "{data}/cusp.json", "--eta", "0.01",
          "--params", "{tmp}/missing_params.json"], ["missing_params.json"]),
        (["knot", "--input", "{data}/cusp.json", "--eta", "0.01",
          "--params", "{tmp}/no_A.json"], ["no_A.json", "'A'"]),
        (["analyze", "--input", "{data}/cusp.json",
          "--out-dir", "{tmp}/a_file/sub"], ["a_file"]),
    ], ids=["missing-input", "no-fprime", "list-input", "missing-params",
            "params-without-A", "out-dir-under-file"])
    def test_exit_code(self, argv, named, tmp_path, capsys):
        for name, doc in BAD_DOCS.items():
            (tmp_path / name).write_text(json.dumps(doc))
        rc = run(*(a.format(tmp=tmp_path, data=DATA) for a in argv))
        assert rc == 2
        err = capsys.readouterr().err
        assert all(n in err for n in named), err


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
        # analyze reads conf_tol only, and says so
        rc = run("analyze", "--input", str(DATA / "cusp.json"),
                 "--tol", "bogus_name=1")
        assert rc == 2
        err = capsys.readouterr().err
        assert "bogus_name" in err
        assert "conf_tol" in err and "newton_tol" not in err

    def test_known_tolerance_accepted(self, capsys):
        rc = run("analyze", "--input", str(DATA / "cusp.json"), "--json",
                 "--tol", "conf-tol=1e-9")
        assert rc == 0

    def test_non_conformal_map_refused(self, tmp_path, capsys):
        rc = run("analyze", "--input", non_conformal(tmp_path))
        assert rc == 2
        assert "ConformalityViolation" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_tolerance_exit_code(self, value, tmp_path, capsys):
        rc = run("analyze", "--input", non_conformal(tmp_path),
                 "--tol", f"conf_tol={value}")
        assert rc == 2
        assert "must be finite and positive" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_tolerance_in_input_exit_code(self, value, tmp_path,
                                                      capsys):
        # Python's json writes and reads NaN and Infinity
        rc = run("analyze", "--input", non_conformal(tmp_path, value))
        assert rc == 2
        assert "conf_tol must be finite and positive" in capsys.readouterr().err


    def test_second_branch_point_on_a_gauss_sample(self, tmp_path, capsys):
        # f1' = 2z(z - 0.3), f3' = 3z^2(z - 0.3): a second branch point at
        # z = 0.3, one of the Gauss sample points
        data = tmp_path / "two_branch_points.json"
        data.write_text(json.dumps({"fprime": [
            [[0, 0], [-0.6, 0], [2, 0]], [],
            [[0, 0], [0, 0], [-0.9, 0], [3, 0]], []]}))
        rc = run("analyze", "--input", str(data), "--json")
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert len(report["branch_points"]) == 2
        at_bp = report["gauss_samples"][0]
        assert at_bp["z"] == [0.3, 0.0]
        assert at_bp["gamma_plus"] == at_bp["gamma_minus"] == "undefined (branch point)"

    def test_gauss_cross_check_exit_code(self, monkeypatch, capsys):
        # a cross-check that always fails stands in for disagreeing routes
        real = cli.gauss_maps
        monkeypatch.setattr(cli, "gauss_maps",
                            lambda w, z: real(w, z, cross_check_tol=-1.0))
        rc = run("analyze", "--input", str(DATA / "cusp.json"))
        assert rc == 6
        assert "GaussCrossCheckFailure" in capsys.readouterr().err


class TestDeform:
    def test_zero_scale_exit_code(self, capsys):
        # a scale that is not finite and positive is refused before any draw,
        # so no NaN coefficient reaches the root finder
        for cmd, t in (("deform", "0"), ("deform", "nan"), ("deform", "inf"),
                       ("verify", "nan")):
            rc = run(cmd, "--input", str(DATA / "cusp.json"),
                     "--t", t, "--seed", "1")
            assert rc == 3
            err = capsys.readouterr().err
            assert "finite and > 0" in err
            assert "LinAlgError" not in err and "RuntimeWarning" not in err

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


def cusp_params(tmp_path) -> str:
    params = {"A": [[0, 0], [0, 0]], "B": [[-0.0025, 0], [0, 0], [0, 0]],
              "orientation": "+", "t": 0.05}
    pfile = tmp_path / "params.json"
    pfile.write_text(json.dumps(params))
    return str(pfile)


class TestDoublePoints:
    def test_with_explicit_params(self, tmp_path, capsys):
        pfile = cusp_params(tmp_path)
        rc = run("double-points", "--input", str(DATA / "cusp.json"),
                 "--params", pfile, "--out-dir", str(tmp_path), "--json")
        assert rc == 0
        dps = json.loads((tmp_path / "double_points.json").read_text())
        assert len(dps) == 1
        assert dps[0]["residual"] <= 1e-12

    def test_branch_point_region_exit_code(self, capsys):
        rc = run("double-points", "--input", str(DATA / "cusp.json"))
        assert rc == 2
        assert "BranchPointInRegion" in capsys.readouterr().err

    def test_unknown_tolerance_exit_code(self, capsys):
        rc = run("double-points", "--input", str(DATA / "cusp.json"),
                 "--tol", "bogus_name=1")
        assert rc == 2
        err = capsys.readouterr().err
        assert "bogus_name" in err
        assert "conf_tol" in err and "newton_tol" in err

    def test_known_tolerance_accepted(self, tmp_path, capsys):
        rc = run("double-points", "--input", str(DATA / "cusp.json"),
                 "--params", cusp_params(tmp_path), "--json",
                 "--tol", "newton_tol=1e-11")
        assert rc == 0

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_newton_tol_exit_code(self, value, tmp_path, capsys):
        # nan converged no seed and inf every seed, both with exit 0
        rc = run("double-points", "--input", str(DATA / "cusp.json"),
                 "--params", cusp_params(tmp_path),
                 "--tol", f"newton_tol={value}")
        assert rc == 2
        assert "must be finite and positive" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["double-points", "--radius", "-0.5"],
        ["double-points", "--grid-n", "2"],
        ["verify", "--eta", "0.5", "--grid-n", "1"],
    ], ids=["negative-radius", "grid-n-2", "verify-grid-n-1"])
    def test_out_of_range_region_exit_code(self, argv, capsys):
        rc = run(*argv, "--input", str(DATA / "flat_plane.json"))
        assert rc == 2
        assert "ValueError" in capsys.readouterr().err


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

    @pytest.mark.parametrize("eta", [[], ["--eta", "0.01"]])
    def test_traces_the_slice_once(self, eta, tmp_path, monkeypatch, capsys):
        # with or without --eta, the slice the report uses is the one traced
        calls = 0
        real = knot.trace_slice

        def counted(*args, **kwargs):
            nonlocal calls
            calls += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(knot, "trace_slice", counted)
        rc = run("knot", "--input", str(DATA / "cusp.json"), *eta,
                 "--out-dir", str(tmp_path))
        assert rc == 0
        assert calls == 1

    @pytest.mark.parametrize("argv", [
        ["knot", "--input", str(DATA / "cusp.json"), "--eta", "-0.01"],
        ["knot", "--input", str(DATA / "cusp.json"), "--eta", "nan"],
        ["verify", "--input", str(DATA / "flat_plane.json"), "--eta", "-1"],
    ], ids=["knot-negative", "knot-nan", "verify-negative"])
    def test_bad_eta_exit_code(self, argv, tmp_path, capsys):
        rc = run(*argv, "--out-dir", str(tmp_path))
        assert rc == 2
        err = capsys.readouterr().err
        assert "ValueError" in err and "finite and > 0" in err

    def test_touching_pushoff_exit_code(self, tmp_path, capsys):
        # the four-function slice lies in {x4 = 0}: its pushoff touches it
        rc = run("knot", "--input", str(DATA / "four_function.json"),
                 "--out-dir", str(tmp_path))
        assert rc == 5
        assert "PushoffCollision" in capsys.readouterr().err

    def test_sampling_flag_refused(self, capsys):
        # knot reads --params only; --t is neither its flag nor --tol
        with pytest.raises(SystemExit) as exc:
            run("knot", "--input", str(DATA / "cusp.json"), "--t", "0.05")
        assert exc.value.code == 2


class TestVerify:
    def test_cusp_with_explicit_params(self, tmp_path, capsys):
        pfile = cusp_params(tmp_path)
        rc = run("verify", "--input", str(DATA / "cusp.json"),
                 "--params", pfile, "--eta", "0.01",
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

    def test_unread_tolerance_exit_code(self, capsys):
        # verify reads no Newton tolerance, so it refuses one
        rc = run("verify", "--input", str(DATA / "cusp.json"),
                 "--tol", "newton_tol=1e-2")
        assert rc == 2
        assert "newton_tol" in capsys.readouterr().err

    def test_identity_violation_exit_code(self, capsys):
        # the sampled double point lies outside the 0.01-ball
        rc = run("verify", "--input", str(DATA / "cusp.json"),
                 "--t", "0.05", "--seed", "1", "--eta", "0.01")
        assert rc == 4
        captured = capsys.readouterr()
        assert captured.out == ("D=0 e=3 N=2 VIOLATION: 2D = 0 differs "
                                "from e - (N-1) = 2\n")
        assert "FormulaViolation" in captured.err

    @pytest.mark.parametrize("argv, traces", [
        (["--input", str(DATA / "flat_plane.json")], 1),
        (["--input", str(DATA / "cusp.json"), "--t", "0.005", "--seed", "1"], 2),
    ], ids=["flat", "cusp-sampled"])
    def test_scan_traces_the_base_slice_once(self, argv, traces, monkeypatch,
                                             capsys):
        # without --eta the scan's accepted slice is the base slice; a
        # perturbed map adds the slice of the member
        calls = 0
        real = knot.trace_slice

        def counted(*args, **kwargs):
            nonlocal calls
            calls += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(knot, "trace_slice", counted)
        rc = run("verify", *argv)
        assert rc == 0
        assert "OK" in capsys.readouterr().out
        assert calls == traces
