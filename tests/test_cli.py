import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from branchknot import cli, deformation, errors, intersect, knot, weierstrass
from branchknot.cpoly import CPoly
from branchknot.weierstrass import WeierstrassData

DATA = Path(__file__).resolve().parent.parent / "data"
# z -> (conj z^2, conj z^3), whose slices turn clockwise
CONJUGATE_CUSP = {"fprime": [[], [[0, 0], [2, 0]], [], [[0, 0], [0, 0], [3, 0]]]}


def run(*argv):
    return cli.main(list(argv))


def write_input(tmp_path, doc) -> str:
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    return str(path)


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
            "no_A.json": {"B": [[0, 0]] * 3}, "a_file": {},
            "short_pair.json": {"fprime": [[[1]], [], [], []]},
            "orientation_x.json": {"A": [[0, 0]] * 2, "B": [[0, 0]] * 3,
                                   "orientation": "x"},
            "orientation_1.json": {"A": [[0, 0]] * 2, "B": [[0, 0]] * 3,
                                   "orientation": 1},
            "long_pair_A.json": {"A": [[1, 2, 3], [0, 0]], "B": [[0, 0]] * 3},
            "short_pair_B.json": {"A": [[0, 0]] * 2,
                                  "B": [[0, 0], [0, 0], [1]]},
            "word_in_A.json": {"A": [[0, 0], ["x", 0]], "B": [[0, 0]] * 3},
            "word_in_fprime.json": {"fprime": [[], [["x", 0]], [], []]},
            "number_for_A.json": {"A": 5, "B": [[0, 0]] * 3},
            "bool_in_fprime.json": {"fprime": [[[0, 0], [True, 0]], [],
                                               [[0, 0], [0, 0], [3, 0]], []]},
            "number_for_fprime.json": {"fprime": 5},
            "nan_in_fprime.json": {"fprime": [[[0, 0], [math.nan, 0]], [],
                                              [[0, 0], [0, 0], [3, 0]], []]},
            "infinity_in_A.json": {"A": [[0, 0], [math.inf, 0]],
                                   "B": [[0, 0]] * 3},
            "huge_int_in_fprime.json": {"fprime": [[[0, 0], [10 ** 400, 0]], [],
                                                   [[0, 0], [0, 0], [3, 0]], []]}}
# cusp parameters with a t that is not a finite number in [0, 1]
BAD_DOCS.update({f"t_{name}.json": {"A": [[0, 0]] * 2, "B": [[0, 0]] * 3, "t": t}
                 for name, t in (("true", True), ("nan", math.nan),
                                 ("string", "1.5"), ("word", "x"),
                                 ("above_one", 1.5))})
# a map whose conformality residual 2e-2 the default conf_tol refuses, with
# a conf_tol that is not a finite number
BAD_DOCS.update({f"conf_tol_{name}.json": {
    "fprime": [[[0, 0], [2, 0]], [[0, 0], [0.01, 0]], [[0, 0], [0, 0], [3, 0]], []],
    "conf_tol": c} for name, c in (("true", True), ("string", "0.5"),
                                   ("null", None))})


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
        (["analyze", "--input", "{tmp}/short_pair.json"],
         ["short_pair.json", "coefficient 0"]),
        (["knot", "--input", "{data}/cusp.json", "--eta", "0.01",
          "--params", "{tmp}/orientation_x.json"],
         ["orientation_x.json", "orientation"]),
        (["knot", "--input", "{data}/cusp.json", "--eta", "0.01",
          "--params", "{tmp}/orientation_1.json"],
         ["orientation_1.json", "orientation"]),
        (["knot", "--input", "{data}/cusp.json", "--eta", "0.01",
          "--params", "{tmp}/long_pair_A.json"],
         ["long_pair_A.json", "A: coefficient 0", "[1, 2, 3]"]),
        (["knot", "--input", "{data}/cusp.json", "--eta", "0.01",
          "--params", "{tmp}/short_pair_B.json"],
         ["short_pair_B.json", "B: coefficient 2", "[1]"]),
        (["knot", "--input", "{data}/cusp.json", "--eta", "0.01",
          "--params", "{tmp}/word_in_A.json"],
         ["word_in_A.json", "A: coefficient 1", "['x', 0]"]),
        (["analyze", "--input", "{tmp}/word_in_fprime.json"],
         ["word_in_fprime.json", "fprime[1]: coefficient 0", "['x', 0]"]),
        (["knot", "--input", "{data}/cusp.json", "--eta", "0.01",
          "--params", "{tmp}/number_for_A.json"],
         ["number_for_A.json", "A must be a list of [re, im] pairs, got 5"]),
        (["analyze", "--input", "{tmp}/bool_in_fprime.json"],
         ["bool_in_fprime.json", "fprime[0]: coefficient 1", "[True, 0]"]),
        (["analyze", "--input", "{tmp}/number_for_fprime.json"],
         ["number_for_fprime.json", "fprime must be a list of four", "got 5"]),
        (["analyze", "--input", "{tmp}/nan_in_fprime.json"],
         ["nan_in_fprime.json", "fprime[0]: coefficient 1", "finite", "[nan, 0]"]),
        (["verify", "--input", "{tmp}/nan_in_fprime.json", "--t", "0.005",
          "--eta", "0.05"],
         ["nan_in_fprime.json", "fprime[0]: coefficient 1", "finite"]),
        (["verify", "--input", "{data}/cusp.json",
          "--params", "{tmp}/infinity_in_A.json"],
         ["infinity_in_A.json", "A: coefficient 1", "finite", "[inf, 0]"]),
        (["analyze", "--input", "{tmp}/huge_int_in_fprime.json"],
         ["huge_int_in_fprime.json", "fprime[0]: coefficient 1", "finite"]),
        (["knot", "--input", "{data}/cusp.json", "--eta", "0.01",
          "--params", "{tmp}/a_list.json"],
         ["a_list.json", "expected a JSON object with key 'A'"]),
        (["verify", "--input", "{data}/cusp.json",
          "--params", "{tmp}/a_list.json"],
         ["a_list.json", "expected a JSON object with key 'A'"]),
        *[(["knot", "--input", "{data}/cusp.json", "--eta", "0.01",
            "--params", f"{{tmp}}/t_{name}.json"],
           [f"t_{name}.json", "t must be a finite number in [0, 1]", got])
          for name, got in (("true", "True"), ("nan", "nan"), ("string", "'1.5'"),
                            ("word", "'x'"), ("above_one", "1.5"))],
        *[(["analyze", "--input", f"{{tmp}}/conf_tol_{name}.json"],
           [f"conf_tol_{name}.json", "conf_tol must be finite and positive", got])
          for name, got in (("true", "True"), ("string", "'0.5'"), ("null", "None"))],
    ], ids=["missing-input", "no-fprime", "list-input", "missing-params",
            "params-without-A", "out-dir-under-file", "short-coefficient-pair",
            "orientation-string", "orientation-number", "long-pair-in-params",
            "short-pair-in-params", "non-number-in-params",
            "non-number-in-fprime", "number-for-a-vector", "bool-in-fprime",
            "number-for-fprime", "nan-in-fprime", "nan-in-fprime-verify",
            "infinity-in-params", "integer-beyond-float-in-fprime",
            "list-params", "list-params-verify", "bool-t", "nan-t", "string-t",
            "word-t", "t-above-one", "bool-conf-tol", "string-conf-tol",
            "null-conf-tol"])
    def test_exit_code(self, argv, named, tmp_path, capsys):
        for name, doc in BAD_DOCS.items():
            (tmp_path / name).write_text(json.dumps(doc))
        rc = run(*(a.format(tmp=tmp_path, data=DATA) for a in argv))
        assert rc == 2
        err = capsys.readouterr().err
        assert all(n in err for n in named), err
        assert "unpack" not in err

    @pytest.mark.parametrize("name, text, named", [
        ("truncated.json", b'{"fprime": [', "Expecting value: line 1 column 13"),
        ("latin1.json", '{"fprime": "\u00e9"}'.encode("latin-1"),
         "can't decode byte 0xe9"),
    ], ids=["not-json", "not-utf8"])
    def test_unreadable_text_exit_code(self, name, text, named, tmp_path, capsys):
        # a file json cannot decode is named, as any other bad document is
        (tmp_path / name).write_bytes(text)
        for argv in (["analyze", "--input", str(tmp_path / name)],
                     ["knot", "--input", str(DATA / "cusp.json"), "--eta", "0.01",
                      "--params", str(tmp_path / name)]):
            assert run(*argv) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"ValueError: {tmp_path / name}: not UTF-8 JSON")
            assert named in err and err.count("\n") == 1


def documented_exit_codes() -> dict:
    """{code: its entry} of the exit-code list in the cli docstring."""
    doc = cli.__doc__.partition("Exit codes:")[2]
    return {int(m[1]): m[2] for m in
            re.finditer(r"^  (\d)  (.*?)(?=^  \d  |\Z)", doc, re.M | re.S)}


ERROR_CLASSES = sorted(
    (c for c in vars(errors).values() if isinstance(c, type)
     and issubclass(c, errors.BranchknotError) and c is not errors.BranchknotError),
    key=lambda c: c.__name__)


@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda c: c.__name__)
def test_error_class_exits_with_its_documented_code(cls, monkeypatch, capsys):
    # the class declares its code, and the docstring's entry for that code
    # names the class or a group it belongs to
    def fail(args):
        raise cls("the message")

    monkeypatch.setattr(cli, "cmd_analyze", fail)
    rc = run("analyze", "--input", str(DATA / "cusp.json"))
    assert rc == cls.exit_code
    assert rc in {2, 3, 4, 5, 6}
    entry = documented_exit_codes()[rc]
    assert any(c.__name__ in entry for c in cls.__mro__
               if issubclass(c, errors.BranchknotError)
               and c is not errors.BranchknotError)
    assert capsys.readouterr().err == f"{cls.__name__}: the message\n"


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
        # f2' = 0 puts the first Gauss map at the pole; f2' = f4' = 0
        # leaves the second chart undefined
        for sample in report["gauss_samples"]:
            assert sample["gamma_plus"] == [0.0, 0.0, 1.0]
            assert sample["gamma_minus"] == "undefined (degenerate chart)"

    def test_summary_line(self, capsys):
        # without --json the report goes to stdout and one line to stderr
        rc = run("analyze", "--input", str(DATA / "cusp.json"))
        assert rc == 0
        out, err = capsys.readouterr()
        assert json.loads(out)["N"] == 2
        assert err == ("N=2 orders=[1, None, 2, None] branch_points=[0+0j] "
                       "conf_residual=0.00e+00\n")

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
        # the command line sets no tolerance: conf_tol is read from the
        # input only, so argparse refuses the option like any unknown one
        with pytest.raises(SystemExit) as exc:
            run("analyze", "--input", str(DATA / "cusp.json"),
                "--tol", "conf_tol=1e-9")
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: --tol conf_tol=1e-9" in err
        assert "Traceback" not in err

    def test_non_conformal_map_refused(self, tmp_path, capsys):
        rc = run("analyze", "--input", non_conformal(tmp_path))
        assert rc == 2
        assert "ConformalityViolation" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_tolerance_exit_code(self, value, tmp_path, capsys):
        # every other subcommand reads the input's conf_tol as analyze does
        path = non_conformal(tmp_path, float(value))
        for argv in (["deform", "--t", "0.05"], ["double-points"],
                     ["knot"], ["verify"]):
            rc = run(*argv, "--input", path, "--out-dir", str(tmp_path))
            assert rc == 2
            assert "conf_tol must be finite and positive" in capsys.readouterr().err

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

    def test_shared_root_of_a_quotient_on_a_gauss_sample(self, tmp_path,
                                                          capsys):
        # f' = (z, z^3 (z - 0.3), z^2 (z - 0.3), -z^2): f2' and f3' share
        # the immersed root 0.3, where f3'/f2' is 0/0 but -f1'/f4' = 10/3
        # and f1'/f3' is the pole
        data = tmp_path / "shared_root.json"
        data.write_text(json.dumps({"fprime": [
            [[0, 0], [1, 0]], [[0, 0], [0, 0], [0, 0], [-0.3, 0], [1, 0]],
            [[0, 0], [0, 0], [-0.3, 0], [1, 0]], [[0, 0], [0, 0], [-1, 0]]]}))
        rc = run("analyze", "--input", str(data), "--json")
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["branch_points"] == [[0.0, 0.0]]
        at_root = report["gauss_samples"][0]
        assert at_root["z"] == [0.3, 0.0]
        g = 10 / 3
        assert at_root["gamma_plus"] == pytest.approx(
            [2 * g / (g * g + 1), 0.0, (g * g - 1) / (g * g + 1)], abs=1e-15)
        assert at_root["gamma_minus"] == [0.0, 0.0, 1.0]

    def test_gauss_cross_check_exit_code(self, monkeypatch, capsys):
        # a cross-check that always fails stands in for disagreeing routes
        monkeypatch.setattr(weierstrass, "_CROSS_CHECK_TOL", -1.0)
        rc = run("analyze", "--input", str(DATA / "cusp.json"))
        assert rc == 6
        assert "GaussCrossCheckFailure" in capsys.readouterr().err


# analyze's Gauss sample points
GAUSS_SAMPLES = (0.3, 0.3j, -0.3, 0.2 + 0.2j)

_coeff = st.complex_numbers(min_magnitude=0.5, max_magnitude=2.0,
                            allow_nan=False, allow_infinity=False)


@st.composite
def analyze_inputs(draw):
    """A document for analyze and its second branch point (or None).

    Either a complex curve z -> (a z^p, b z^q), p < q, or ex4-type data
    f' = (a z^n1, b z^n2, c z^n3, d z^n4) with n1 below n3 and n4,
    n2 = n3 + n4 - n1 and b = -cd/a, which is off by 0.1 (not conformal)
    when drawn so.  Both are in branch normal form.  Every component may
    take a factor (z - s) that puts a second branch point on a Gauss
    sample point s.
    """
    if draw(st.booleans()):
        p = draw(st.integers(1, 3))
        q = draw(st.integers(p + 1, 5))
        comps = [CPoly.monomial(p - 1) * (p * draw(_coeff)), CPoly.zero(),
                 CPoly.monomial(q - 1) * (q * draw(_coeff)), CPoly.zero()]
    else:
        n1 = draw(st.integers(0, 2))
        n3, n4 = draw(st.integers(n1 + 1, 3)), draw(st.integers(n1 + 1, 3))
        a, c, d = draw(_coeff), draw(_coeff), draw(_coeff)
        b = -c * d / a + (0.0 if draw(st.booleans()) else 0.1)
        comps = [CPoly.monomial(n1) * a, CPoly.monomial(n3 + n4 - n1) * b,
                 CPoly.monomial(n3) * c, CPoly.monomial(n4) * d]
    s = draw(st.sampled_from((None,) + GAUSS_SAMPLES))
    if s is not None:
        comps = [f * CPoly([-s, 1]) for f in comps]
    return {"fprime": [f.to_pairs() for f in comps]}, s


@settings(max_examples=60, deadline=None)
@given(doc_s=analyze_inputs())
def test_analyze_exit_code_is_documented(tmp_path_factory, doc_s):
    doc, s = doc_s
    path = tmp_path_factory.mktemp("analyze") / "input.json"
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        # an exception here escaped main
        rc = cli.main(["analyze", "--input", str(path), "--json"])
    assert rc in (0, 2)
    if rc == 2:
        assert err.getvalue().count("\n") == 1
        return
    report = json.loads(out.getvalue())
    assert [complex(*g["z"]) for g in report["gauss_samples"]] == list(GAUSS_SAMPLES)
    for sample in report["gauss_samples"]:
        values = (sample["gamma_plus"], sample["gamma_minus"])
        for g in values:
            if isinstance(g, str):
                assert g.startswith("undefined (")
            else:
                assert len(g) == 3 and abs(math.hypot(*g) - 1.0) < 1e-12
        if complex(*sample["z"]) == s:
            assert values == ("undefined (branch point)",) * 2
        else:
            assert "undefined (branch point)" not in values


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

    def test_scale_above_one_exit_code(self, capsys):
        # the parameter domain is the product of unit balls: a scale above 1
        # is refused whatever the seed, not only when a draw leaves the balls
        for seed in ("1", "6"):
            rc = run("deform", "--input", str(DATA / "cusp.json"),
                     "--t", "1.05", "--seed", seed)
            assert rc == 3
            assert capsys.readouterr().err == (
                "SamplingExhausted: perturbation scale t must be at most 1, "
                "got 1.05\n")

    def test_negative_seed_exit_code(self, capsys):
        # numpy refuses a negative seed without naming it; the sampler
        # names it
        rc = run("deform", "--input", str(DATA / "cusp.json"), "--t", "0.05",
                 "--seed", "-3")
        assert rc == 2
        assert capsys.readouterr().err == (
            "ValueError: sampler seed must be a non-negative integer, got -3\n")

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


@pytest.mark.parametrize("argv", [
    ["deform", "--input", str(DATA / "four_function.json"), "--t", "0.05"],
    ["deform", "--input", str(DATA / "cusp.json"), "--t", "0.05",
     "--orientation", "-"],
    ["verify", "--input", str(DATA / "cusp.json"), "--t", "0.005",
     "--eta", "0.05"],
], ids=["deform-four-function", "deform-cusp", "verify-cusp"])
def test_one_member_per_draw(argv, tmp_path, monkeypatch, capsys):
    # every draw that passes check_X1 builds its member once, and the
    # accepted one is handed on, not built again; the member at A = B = 0
    # is built once per run, for the second-branch-point refusal
    real_build, real_x1 = deformation._member, deformation.check_X1
    built, passed = [], []

    def build(frame, p):
        built.append(p)
        return real_build(frame, p)

    def x1(p, w):
        passed.append(real_x1(p, w))
        return passed[-1]

    # wherever a package module binds them
    for mod in [m for name, m in sys.modules.items()
                if name.split(".")[0] == "branchknot"]:
        for name, spy, real in (("_member", build, real_build),
                                ("check_X1", x1, real_x1)):
            if getattr(mod, name, None) is real:
                monkeypatch.setattr(mod, name, spy)
    assert run(*argv, "--seed", "1", "--out-dir", str(tmp_path)) == 0
    assert len(built) - 1 == sum(passed) >= 1
    assert built[0].t == 0.0 and all(p.t > 0 for p in built[1:])


# cusps at z = 0 and z = 0.5; SECOND_CUSP_OUTSIDE moves the second to z = 2
SECOND_CUSP = {"fprime": [[[0, 0], [-0.5, 0], [1, 0]], [],
                          [[0, 0], [0, 0], [-1.5, 0], [3, 0]], []]}
SECOND_CUSP_OUTSIDE = {"fprime": [[[0, 0], [-2, 0], [1, 0]], [],
                                  [[0, 0], [0, 0], [-6, 0], [3, 0]], []]}


@pytest.mark.parametrize("argv", [
    ["deform", "--t", "0.05"], ["verify", "--t", "1e-5"]],
    ids=["deform", "verify"])
def test_second_branch_point_is_refused(argv, tmp_path, capsys):
    # every member keeps the cusp at 0.5, so no draw is made at all
    start = time.perf_counter()
    rc = run(argv[0], "--input", write_input(tmp_path, SECOND_CUSP), *argv[1:],
             "--seed", "1", "--out-dir", str(tmp_path / "out"))
    assert time.perf_counter() - start < 0.1
    assert rc == 3
    assert capsys.readouterr().err == (
        "SecondBranchPoint: branch point at z = 0.5+0j besides z = 0 in the "
        "unit disk; every family member keeps it\n")


def test_second_branch_point_outside_the_disk(tmp_path, capsys):
    rc = run("verify", "--input", write_input(tmp_path, SECOND_CUSP_OUTSIDE),
             "--t", "1e-5", "--seed", "1")
    assert rc == 0
    assert capsys.readouterr().out == "D=1 e=3 N=2 sl=1 OK\n"


@pytest.mark.parametrize("argv", [
    ["verify", "--t", "0.005", "--eta", "0.05"], ["deform", "--t", "0.005"]],
    ids=["verify", "deform"])
def test_relabel_warning_is_written_once(argv, tmp_path):
    # x -> (conj z^2, z^3) relabels by an odd permutation; a run of the
    # program in its own process warns of it once, with the default filters
    path = tmp_path / "mirrored_cusp.json"
    path.write_text(json.dumps(
        {"fprime": [[], [[0, 0], [2, 0]], [[0, 0], [0, 0], [3, 0]], []]}))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
    env["PYTHONPATH"] = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "branchknot.cli", argv[0], "--input", str(path),
         *argv[1:], "--seed", "1", "--out-dir", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.count("reflects one coordinate plane") == 1, proc.stderr


@settings(max_examples=20, deadline=None)
@given(stem=st.sampled_from(sorted(p.stem for p in DATA.glob("*.json"))),
       t=st.sampled_from([None, "nan", "inf", "-1", "0", "1e-300", "0.05"]),
       orientation=st.sampled_from(["+", "-"]))
def test_deform_exit_code_is_documented(tmp_path_factory, stem, t, orientation):
    argv = ["deform", "--input", str(DATA / f"{stem}.json"), "--json",
            "--orientation", orientation,
            "--out-dir", str(tmp_path_factory.mktemp("deform"))]
    if t is not None:
        argv += ["--t", t]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)   # an exception here escaped main
    assert rc in (0, 2, 3)
    if rc != 0:
        assert err.getvalue().count("\n") == 1
        return
    assert t == "0.05"
    member = json.loads(out.getvalue())
    assert member["gauss_invariance_residual"] <= 1e-10
    assert member["params"]["orientation"] == orientation


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

    def test_singular_seeds_print_no_warning(self, tmp_path, capsys):
        # z -> (z + 5 z^2, 10 z^2): some Newton seeds meet a singular
        # Jacobian at radius 0.25; they stop without a numpy warning
        path = write_input(tmp_path, {"fprime": [[[1, 0], [10, 0]], [],
                                                 [[0, 0], [20, 0]], []]})
        rc = run("double-points", "--input", path, "--radius", "0.25")
        assert rc == 0
        assert capsys.readouterr().err == "double points: 0\n"

    def test_branch_point_region_exit_code(self, capsys):
        rc = run("double-points", "--input", str(DATA / "cusp.json"))
        assert rc == 2
        assert "BranchPointInRegion" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["double-points", "--radius", "-0.5"],
        ["double-points", "--grid-n", "2"],
        ["double-points", "--grid-n", "4"],
        ["double-points", "--grid-n", "27"],
        ["verify", "--eta", "0.5", "--grid-n", "1"],
    ], ids=["negative-radius", "grid-n-2", "grid-n-4", "grid-n-27",
            "verify-grid-n-1"])
    def test_out_of_range_region_exit_code(self, argv, capsys):
        # below grid 28 the seed grid is under 7 points across, and seed
        # grids that narrow missed double points that wider ones find
        rc = run(*argv, "--input", str(DATA / "flat_plane.json"))
        assert rc == 2
        assert "ValueError" in capsys.readouterr().err


@pytest.fixture(scope="module")
def sampled_cusp(tmp_path_factory):
    """A sampled cusp member's params file, and for each of its double
    points the larger preimage modulus and the image's norm (from a
    grid-48 search of the whole admissible disk)."""
    w = WeierstrassData.from_json_dict(json.loads((DATA / "cusp.json").read_text()))
    fm = deformation.sample_generic(w, 0.05, 1, orientation=+1)
    path = tmp_path_factory.mktemp("sampled_cusp") / "params.json"
    path.write_text(json.dumps(fm.params.to_json_dict()))
    dps = intersect.find_double_points(fm.deformed, 0.9, 48)
    assert dps
    return (str(path), [max(abs(dp.z1), abs(dp.z2)) for dp in dps],
            [float(np.linalg.norm(dp.image)) for dp in dps])


@settings(max_examples=40, deadline=None)
@given(cusp=st.booleans(),
       radius=st.sampled_from(["nan", "inf", "-0.5", "0", "1e-300", "0.3",
                               "0.9", "0.95"]),
       grid_n=st.integers(-2, 40))
def test_double_points_exit_code_is_documented(sampled_cusp, cusp, radius,
                                               grid_n):
    params, moduli, _ = sampled_cusp
    argv = ["double-points", "--radius", radius, "--grid-n", str(grid_n),
            "--json"]
    argv += (["--input", str(DATA / "cusp.json"), "--params", params] if cusp
             else ["--input", str(DATA / "flat_plane.json")])
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)   # an exception here escaped main
    assert rc in (0, 2)
    if rc == 2:
        assert err.getvalue().count("\n") == 1
        return
    # the flat plane is embedded; the member's double points count when
    # both preimages lie in the disk
    expect = sum(m <= float(radius) for m in moduli) if cusp else 0
    assert len(json.loads(out.getvalue())) == expect


@settings(max_examples=25, deadline=None)
@given(cusp=st.booleans(),
       eta=st.sampled_from([None, "nan", "inf", "-1", "0", "1e-300", "0.01",
                            "0.05", "0.5", "0.95"]),
       grid_n=st.integers(20, 40))
def test_verify_exit_code_is_documented(sampled_cusp, cusp, eta, grid_n):
    params, _, norms = sampled_cusp
    argv = ["verify", "--grid-n", str(grid_n), "--json"]
    argv += (["--input", str(DATA / "cusp.json"), "--params", params] if cusp
             else ["--input", str(DATA / "flat_plane.json")])
    if eta is not None:
        argv += ["--eta", eta]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)   # an exception here escaped main
    assert rc in (0, 2, 4, 5)
    if rc != 0:
        assert err.getvalue().count("\n") == 1
        return
    # the summary line comes first, then the JSON report; D counts the
    # double points in the ball that the whole admissible disk holds
    report = json.loads(out.getvalue().partition("\n")[2])
    expect = sum(n < report["eta"] for n in norms) if cusp else 0
    assert report["D"] == expect


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

    def test_flat_single_strand(self, tmp_path, capsys, monkeypatch):
        argv = ["knot", "--input", str(DATA / "flat_plane.json"),
                "--eta", "0.5", "--out-dir", str(tmp_path)]
        rc = run(*argv)
        assert rc == 0
        report = json.loads((tmp_path / "knot_report.json").read_text())
        assert report["n_strands"] == 1
        assert report["crossing_sum"] == 0
        assert capsys.readouterr().err == "winding=1 e=0 gauss=0.000\n"
        # the Gauss sum of an unknot is a rounding residue of either sign,
        # and a negative one prints without its sign as well
        monkeypatch.setattr(knot, "linking_number_gauss", lambda k: -4e-17)
        assert run(*argv) == 0
        assert capsys.readouterr().err == "winding=1 e=0 gauss=0.000\n"

    def test_conjugate_cusp(self, tmp_path, capsys):
        # its slice is read backwards, as the cusp's trefoil
        rc = run("knot", "--input", write_input(tmp_path, CONJUGATE_CUSP),
                 "--out-dir", str(tmp_path))
        assert rc == 0
        assert capsys.readouterr().err == "winding=2 e=3 gauss=3.000\n"

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

    @pytest.mark.parametrize("eta", ["0.9", "0.94"])
    def test_slice_past_the_search_limit_exit_code(self, eta, capsys):
        # the flat plane's slice at eta is the circle |z| = eta, and
        # verify's search disk is a little wider than the slice
        rc = run("verify", "--input", str(DATA / "flat_plane.json"),
                 "--eta", eta)
        assert rc == 5
        err = capsys.readouterr().err
        assert f"SliceBeyondSearchLimit: the slice at eta={eta}" in err
        assert "limit |z| <= 0.9" in err

    @pytest.mark.parametrize("command", ["knot", "verify"])
    def test_crossing_routes_disagree_exit_code(self, command, tmp_path,
                                                monkeypatch, capsys):
        # a Gauss sum one above the cusp slice's crossing sum 3 is refused;
        # knot writes no file
        monkeypatch.setattr(knot, "linking_number_gauss", lambda k: 4.0)
        rc = run(command, "--input", str(DATA / "cusp.json"), "--eta", "0.01",
                 "--params", cusp_params(tmp_path),
                 "--out-dir", str(tmp_path / "out"))
        assert rc == 5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("CrossingRoutesDisagree: crossing-count routes "
                                "disagree: braid 3, gauss 4.000\n")
        assert not (tmp_path / "out").exists()

    def test_touching_pushoff_exit_code(self, tmp_path, capsys):
        # the four-function slice lies in {x4 = 0}, so its strands meet at
        # every eta: the scan rejects each one by name, and a given eta is
        # refused with the trace's own message
        rc = run("knot", "--input", str(DATA / "four_function.json"),
                 "--out-dir", str(tmp_path))
        assert rc == 5
        assert "0.1 (SliceNotEmbedded), 0.05 (SliceNotEmbedded)" in \
            capsys.readouterr().err
        rc = run("knot", "--input", str(DATA / "four_function.json"),
                 "--eta", "0.1", "--out-dir", str(tmp_path))
        assert rc == 5
        err = capsys.readouterr().err
        assert err.startswith("SliceNotEmbedded: the slice at eta=0.1 is not "
                              "embedded: two strands come within ")
        assert err.endswith(", below 1e-12\n") and err.count("\n") == 1

    def test_sampling_flag_refused(self, capsys):
        # knot reads --params only; --t is not its flag
        with pytest.raises(SystemExit) as exc:
            run("knot", "--input", str(DATA / "cusp.json"), "--t", "0.05")
        assert exc.value.code == 2

    def test_verify_radius_flag_refused(self, capsys):
        # verify searches the disk its slice bounds; --radius belongs to
        # double-points alone
        with pytest.raises(SystemExit) as exc:
            run("verify", "--input", str(DATA / "flat_plane.json"),
                "--eta", "0.5", "--radius", "0.5")
        assert exc.value.code == 2
        assert "unrecognized arguments: --radius" in capsys.readouterr().err


@settings(max_examples=30, deadline=None)
@given(stem=st.sampled_from(sorted(p.stem for p in DATA.glob("*.json"))),
       eta=st.sampled_from([None, "nan", "inf", "-1", "0", "1e-300", "0.01",
                            "0.05", "5"]))
def test_knot_exit_code_is_documented(tmp_path_factory, stem, eta):
    path = DATA / f"{stem}.json"
    argv = ["knot", "--input", str(path), "--json",
            "--out-dir", str(tmp_path_factory.mktemp("knot"))]
    if eta is not None:
        argv += ["--eta", eta]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)   # an exception here escaped main
    assert rc in (0, 2, 5)
    if rc != 0:
        assert err.getvalue().count("\n") == 1
        return
    report = json.loads(out.getvalue())
    w = WeierstrassData.from_json_dict(json.loads(path.read_text()))
    assert report["n_strands"] == w.N
    assert abs(report["linking_gauss"] - report["crossing_sum"]) <= 1e-6


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

    def test_relabelled_input(self, tmp_path, capsys):
        # x -> (conj z^2, z^3) is verified in the relabelled (cusp) frame
        path = tmp_path / "mirrored_cusp.json"
        path.write_text(json.dumps(
            {"fprime": [[], [[0, 0], [2, 0]], [[0, 0], [0, 0], [3, 0]], []]}))
        with pytest.warns(UserWarning, match="reflects one coordinate plane"):
            rc = run("verify", "--input", str(path), "--t", "0.005",
                     "--seed", "1", "--eta", "0.05")
        assert rc == 0
        assert capsys.readouterr().out == "D=1 e=3 N=2 sl=1 OK\n"

    def test_conjugate_cusp(self, tmp_path, capsys):
        # both components of each pair are relabelled, and the member's
        # base slice is read backwards
        rc = run("verify", "--input", write_input(tmp_path, CONJUGATE_CUSP),
                 "--t", "0.005", "--seed", "1", "--eta", "0.05")
        assert rc == 0
        assert capsys.readouterr().out == "D=1 e=3 N=2 sl=1 OK\n"

    def test_flat_control(self, capsys):
        rc = run("verify", "--input", str(DATA / "flat_plane.json"),
                 "--eta", "0.5")
        assert rc == 0
        assert "D=0 e=0 N=1" in capsys.readouterr().out

    def test_identity_violation_exit_code(self, capsys):
        # the sampled double point lies outside the 0.01-ball
        rc = run("verify", "--input", str(DATA / "cusp.json"),
                 "--t", "0.05", "--seed", "1", "--eta", "0.01")
        assert rc == 4
        captured = capsys.readouterr()
        assert captured.out == ("D=0 e=3 N=2 VIOLATION: 2D = 0 differs "
                                "from e - (N-1) = 2\n")
        assert "FormulaViolation" in captured.err

    def test_violation_report_is_written(self, tmp_path, capsys):
        # the report of a violating run goes to verify.json and, with
        # --json, to stdout after the summary line; exit code and stderr
        # are those of any violation
        violation = "2D = 0 differs from e - (N-1) = 4"
        rc = run("verify", "--input", str(DATA / "torus5.json"), "--t", "0.005",
                 "--seed", "1", "--eta", "0.01", "--out-dir", str(tmp_path),
                 "--json")
        assert rc == 4
        captured = capsys.readouterr()
        line, _, printed = captured.out.partition("\n")
        assert line == f"D=0 e=5 N=2 VIOLATION: {violation}"
        assert captured.err == f"FormulaViolation: {violation}\n"
        report = json.loads((tmp_path / "verify.json").read_text())
        assert json.loads(printed) == report
        assert report["identity_ok"] is False
        assert report["D_total"] == 0
        assert report["notes"][-1] == violation

    def test_reads_the_slice_knot_reads(self, tmp_path, capsys):
        # knot and verify read the base slice through one function, so the
        # cusp's slice at eta = 0.01 gives both the same numbers
        assert run("knot", "--input", str(DATA / "cusp.json"), "--eta", "0.01",
                   "--out-dir", str(tmp_path / "knot")) == 0
        assert run("verify", "--input", str(DATA / "cusp.json"), "--eta", "0.01",
                   "--params", cusp_params(tmp_path),
                   "--out-dir", str(tmp_path / "verify")) == 0
        k = json.loads((tmp_path / "knot" / "knot_report.json").read_text())
        v = json.loads((tmp_path / "verify" / "verify.json").read_text())
        assert ((k["eta"], k["crossing_sum"], k["linking_gauss"],
                 k["self_linking"], {"1": k["margin_plus"], "-1": k["margin_minus"]})
                == (v["eta"], v["e"], v["e_gauss"], v["sl"], v["margins_base"]))

    @pytest.mark.parametrize("argv, traces, braids", [
        (["verify", "--input", str(DATA / "flat_plane.json")], 1, 1),
        (["verify", "--input", str(DATA / "cusp.json"), "--t", "0.005",
          "--seed", "1"], 2, 2),
        (["knot", "--input", str(DATA / "cusp.json")], 1, 1),
    ], ids=["flat", "cusp-sampled", "knot-cusp"])
    def test_scan_traces_the_base_slice_once(self, argv, traces, braids,
                                             tmp_path, monkeypatch, capsys):
        # without --eta the scan's accepted slice is the base slice; a
        # perturbed map adds the slice of the member.  The scan reads the
        # winding off the slice's sheets, so each slice read is braided once
        calls = {"trace_slice": 0, "braid_from_knot": 0}

        def counted(name):
            real = getattr(knot, name)

            def spy(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return spy

        for name in calls:
            monkeypatch.setattr(knot, name, counted(name))
        rc = run(*argv, "--out-dir", str(tmp_path))
        assert rc == 0
        captured = capsys.readouterr()
        assert "OK" in captured.out or "winding=2 e=3" in captured.err
        assert calls == {"trace_slice": traces, "braid_from_knot": braids}

    def test_negative_seed_exit_code(self, monkeypatch, capsys):
        # the sampled member's seed is refused by name, before any slice
        def no_trace(*args, **kwargs):
            raise AssertionError("a slice was traced")

        monkeypatch.setattr(knot, "trace_slice", no_trace)
        rc = run("verify", "--input", str(DATA / "cusp.json"), "--t", "0.005",
                 "--seed", "-3", "--eta", "0.05")
        assert rc == 2
        assert capsys.readouterr().err == (
            "ValueError: sampler seed must be a non-negative integer, got -3\n")

    def test_missing_t_is_refused_before_any_trace(self, monkeypatch, capsys):
        # N = 2 and no --params: verify samples a member, which needs --t
        def no_trace(*args, **kwargs):
            raise AssertionError("a slice was traced")

        monkeypatch.setattr(knot, "trace_slice", no_trace)
        rc = run("verify", "--input", str(DATA / "cusp.json"))
        assert rc == 3
        assert capsys.readouterr().err == (
            "SamplingExhausted: perturbation scale t must be finite and > 0, "
            "got None\n")
