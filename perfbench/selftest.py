#!/usr/bin/env python3
"""Self-test of the benchmark's own logic; needs no branchknot import.

    python3 perfbench/selftest.py

Checks that the reference checker fails a wrong report, a traceback, a
timeout and an undocumented exit code, passes the right ones, that self
time is a span's duration minus what its children cover, that a ratio
whose base is 0 is undefined rather than 0, and that the set-up probes
are spread over the gaps between cases.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from checks import Outcome, check  # noqa: E402
from run import probes_per_gap  # noqa: E402
from tracing import RATIOS, SpanStats, layer_metrics, self_times  # noqa: E402
from workloads import torus_expect  # noqa: E402


def _outcome(tmp: Path, name: str, report: dict | None, exit_code=0, **kw) -> Outcome:
    out = tmp / name
    out.mkdir()
    if report is not None:
        fname = "verify.json" if "D" in report else "knot_report.json"
        (out / fname).write_text(json.dumps(report))
    return Outcome(exit_code=exit_code, out_dir=out, **kw)


def test_checker(tmp: Path) -> None:
    t23 = {"kind": "verify", **torus_expect(2, 3)}
    assert t23 == {"kind": "verify", "D": 1, "e": 3, "N": 2, "sl": 1}
    right = {"D": 1, "e": 3, "N": 2, "sl": 1}
    assert check(t23, _outcome(tmp, "right", right))[0]
    wrong = dict(right, e=2)
    ok, detail = check(t23, _outcome(tmp, "wrong", wrong))
    assert not ok and "e=2" in detail, detail

    tb = "Traceback (most recent call last):\n  ...\nZeroDivisionError: division by zero\n"
    ok, detail = check(t23, _outcome(tmp, "tb", right, exit_code=None, error=tb))
    assert not ok and "ZeroDivisionError" in detail, detail
    ok, _ = check(t23, _outcome(tmp, "timeout", None, exit_code=None,
                                error="timeout after 120 s"))
    assert not ok
    ok, detail = check(t23, _outcome(tmp, "exit1", right, exit_code=1))
    assert not ok and "undocumented" in detail, detail
    ok, _ = check(t23, _outcome(tmp, "exit4", None, exit_code=4))
    assert not ok

    knot = {"kind": "knot", "N": 2, "e": 3}
    good = {"n_strands": 2, "crossing_sum": 3, "linking_gauss": 3.02, "eta": 0.1}
    assert check(knot, _outcome(tmp, "k_ok", good))[0]
    assert not check(knot, _outcome(tmp, "k_gauss", dict(good, linking_gauss=2.5)))[0]
    assert not check(knot, _outcome(tmp, "k_N", dict(good, n_strands=3)))[0]

    four = {"kind": "knot_agree_or_refuse"}
    disagree = {"n_strands": 2, "crossing_sum": -3, "linking_gauss": 0.0, "eta": 0.1}
    assert not check(four, _outcome(tmp, "f_bad", disagree))[0]
    assert check(four, _outcome(tmp, "f_ref", None, exit_code=5))[0]
    assert check({"kind": "refuse", "exit": 2}, _outcome(tmp, "r2", None, exit_code=2))[0]
    assert not check({"kind": "refuse", "exit": 2}, _outcome(tmp, "r0", None))[0]


def test_self_time() -> None:
    # root [0,10] with children [1,3] and [2,6] (overlap -> covered [1,6]),
    # grandchild [4,5] inside the second child, and a child clipped at 10
    spans = [
        ("root", 0.0, 10.0, -1, 0, None),
        ("a", 1.0, 3.0, 0, 0, None),
        ("b", 2.0, 6.0, 0, 0, None),
        ("c", 4.0, 5.0, 2, 0, None),
        ("d", 9.0, 11.0, 0, 0, None),
        ("root", 20.0, 21.5, -1, 1, None),
    ]
    got = self_times(spans)
    want = [10.0 - 5.0 - 1.0, 2.0, 3.0, 1.0, 2.0, 1.5]
    assert all(abs(g - w) < 1e-12 for g, w in zip(got, want)), got
    st = SpanStats(spans)
    assert abs(st.outer_s("root") - 11.5) < 1e-12
    assert abs(SpanStats(spans, case=1).outer_s("root") - 1.5) < 1e-12
    assert st.calls("c", parent="b") == 1 and st.calls("c", parent="a") == 0


def test_ratios() -> None:
    # one Newton batch of 10 seeds, 4 converged, inside one search that
    # found 2 double points; no linking sum and no sampling at all
    spans = [
        ("intersect.find_double_points", 0.0, 2.0, -1, 0, {"double_points": 2}),
        ("_kernels.newton_double_points", 0.5, 1.5, 0, 0, {"seeds": 10, "converged": 4}),
    ]
    m = layer_metrics(spans)
    assert m["intersect.useful_ratio"][0] == 0.2
    assert m["kernels.newton_converged_ratio"][0] == 0.4
    assert m["kernels.newton_seeds_per_s"][0] == 10.0
    assert m["kernels.linking_pairs_per_s"][0] is None
    assert m["deformation.accept_ratio"][0] is None
    assert m["kernels.linking_pairs"][0] == 0 and m["deformation.draws"][0] == 0
    assert all(k in m for k in RATIOS)
    assert abs(m["intersect.find_self_s"][0] - 1.0) < 1e-12


def test_probes() -> None:
    for n_cases in (1, 3, 4, 21):
        got = probes_per_gap(n_cases, 11)
        assert len(got) == n_cases + 1 and sum(got) == 11, got
        assert max(got) - min(got) <= 1, got


def main() -> int:
    with tempfile.TemporaryDirectory(dir=Path(__file__).resolve().parent) as tmp:
        test_checker(Path(tmp))
    test_self_time()
    test_ratios()
    test_probes()
    print("selftest: checker, self-time arithmetic, ratios and probe spread OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
