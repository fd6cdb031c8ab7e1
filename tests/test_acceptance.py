"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
"""

import math
import time

import numpy as np
import pytest

import branchknot as bk

CUSP_T = 0.05


def _ok(n, msg):
    print(f"ACCEPTANCE {n:02d} PASS: {msg}")


def test_criterion_01_cusp_pipeline(cusp):
    start = time.monotonic()
    p = bk.PerturbParams(A=[0, 0], B=[-CUSP_T ** 2, 0, 0], orientation=+1,
                         t=CUSP_T)
    fm = bk.build_family_member(cusp, p)
    dps = bk.find_double_points(fm.deformed, radius=0.5, grid_n=48)
    assert len(dps) == 1
    root = math.sqrt(3) * CUSP_T
    got = sorted([dps[0].z1, dps[0].z2], key=lambda c: c.real)
    assert abs(got[0] + root) < 1e-8 and abs(got[1] - root) < 1e-8

    rep = bk.verify_double_point_formula(cusp, p, eta=1e-2)
    assert rep.N == 2 and rep.e == 3 and rep.D == 1
    assert 2 * rep.D == rep.e - (rep.N - 1)
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    _ok(1, f"cusp: D=1 pair=+-sqrt(3)t e=3 N=2, 2*1 = 3-1  [{elapsed:.1f}s]")


def test_criterion_02_higher_torus(torus5):
    start = time.monotonic()
    c = -1e-4
    p = bk.PerturbParams(A=[0, 0], B=[c / 5, 0, 0, 0, 0], orientation=+1, t=0.1)
    rep = bk.verify_double_point_formula(torus5, p, eta=0.02)
    assert rep.D == 2 and rep.e == 5 and rep.N == 2
    assert 2 * rep.D == rep.e - (rep.N - 1)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _ok(2, f"torus: D=2 e=5 N=2, 4 = 5-1  [{elapsed:.1f}s]")


def test_criterion_03_unbranched_control(flat):
    rep = bk.verify_double_point_formula(flat, None, eta=0.5)
    assert rep.N == 1 and rep.D == 0 and rep.e == 0
    assert 2 * rep.D == rep.e - (rep.N - 1)
    k = bk.trace_slice(flat, 0.5)
    b = bk.braid_from_knot(k)
    assert b.n_strands == 1
    m = bk.contact_transversality_margin(k, +1)
    assert abs(m - 1.0) <= 1e-6
    _ok(3, f"flat plane: N=1 D=0 e=0, margin={m:.9f}")


def test_criterion_04_four_function_invariance(ex4):
    assert ex4.orders == (1, 3, 2, 2)
    assert ex4.orders[0] + ex4.orders[1] == ex4.orders[2] + ex4.orders[3] == 4
    ring = 0.3 * np.exp(2j * np.pi * np.arange(100) / 100)
    residuals = {}
    for orientation in (+1, -1):
        p = bk.sample_generic(ex4, 0.05, 11, orientation=orientation)
        fm = bk.build_family_member(ex4, p)
        residuals[orientation] = bk.gauss_invariance_residual(fm, ring)
        assert residuals[orientation] <= 1e-10
    _ok(4, "four-function family: gamma+ residual "
           f"{residuals[+1]:.2e}, gamma- residual {residuals[-1]:.2e}")


def test_criterion_05_determinant_cross_check(ex4):
    p = bk.sample_generic(ex4, 0.05, 13)
    fm = bk.build_family_member(ex4, p)
    rng = np.random.default_rng(99)
    for _ in range(100):
        z1 = rng.uniform(-0.5, 0.5) + 1j * rng.uniform(-0.5, 0.5)
        z2 = rng.uniform(-0.5, 0.5) + 1j * rng.uniform(-0.5, 0.5)
        if z1 == z2:
            continue
        d1 = bk.transversality_determinant(fm, z1, z2)
        d2 = bk.transversality_determinant_direct(fm, z1, z2)
        assert abs(d1 - d2) <= 1e-10 * abs(d1)

    # quadratic lower bound on a 50 x 50 pair grid within |z| <= 0.05
    def spiral(n, rmax, phase):
        k = np.arange(1, n + 1)
        return np.sqrt(k / n) * rmax * np.exp(1j * (2.399963 * k + phase))

    z1s = spiral(50, 0.05, 0.0)
    z2s = spiral(50, 0.05, 1.7)
    ratios = []
    for z1 in z1s:
        for z2 in z2s:
            if abs(z1 - z2) < 1e-12:
                continue
            d = bk.transversality_determinant(fm, z1, z2)
            ratios.append(abs(d) / abs(z1 - z2) ** 2)
    c_low = min(ratios)
    assert c_low > 1e-6
    _ok(5, f"determinant routes agree to 1e-10; |det|/|dz|^2 >= {c_low:.4f} "
           "on the 50x50 grid (constant reported, positivity asserted)")


def test_criterion_06_dual_crossing_count(cusp, torus5, flat, cusp_knot,
                                          torus_knot, flat_knot,
                                          cusp_member, torus_member):
    knots = {
        "cusp base": cusp_knot,
        "torus base": torus_knot,
        "flat": flat_knot,
        "cusp deformed": bk.trace_slice(cusp_member.deformed, 1e-2),
        "torus deformed": bk.trace_slice(torus_member.deformed, 0.02),
    }
    results = {}
    for name, k in knots.items():
        e = bk.algebraic_crossing_number(bk.braid_from_knot(k))
        assert abs(bk.linking_number_gauss(k) - e) <= 1e-6
        results[name] = e
    _ok(6, f"gauss linking matches crossing sums: {results}")


def test_criterion_07_isotopy_stability(cusp):
    t0 = CUSP_T
    es_t = []
    for t in (0.0, t0 / 4, t0 / 2, t0):
        if t == 0.0:
            w = cusp
        else:
            p = bk.PerturbParams(A=[0, 0], B=[-t * t, 0, 0], orientation=+1, t=t)
            w = bk.build_family_member(cusp, p).deformed
        es_t.append(bk.algebraic_crossing_number(
            bk.braid_from_knot(bk.trace_slice(w, 1e-2))))
    assert len(set(es_t)) == 1

    p = bk.PerturbParams(A=[0, 0], B=[-t0 * t0, 0, 0], orientation=+1, t=t0)
    w = bk.build_family_member(cusp, p).deformed
    es_eta = []
    for eta in (0.01, 0.0215, 0.0464, 0.1):
        es_eta.append(bk.algebraic_crossing_number(
            bk.braid_from_knot(bk.trace_slice(w, eta))))
    assert len(set(es_eta)) == 1
    assert es_t[0] == es_eta[0] == 3
    _ok(7, f"e constant over t grid {es_t} and over one eta decade {es_eta}")


def test_criterion_08_oracle_equivalence(oracle_counts, cusp_member,
                                         torus_member, flat):
    finds = {
        "cusp": len(bk.find_double_points(cusp_member.deformed, 0.5, 48)),
        "torus": len(bk.find_double_points(torus_member.deformed, 0.5, 48)),
        "flat": len(bk.find_double_points(flat, 0.5, 48)),
    }
    assert finds == oracle_counts == {"cusp": 1, "torus": 2, "flat": 0}
    _ok(8, f"brute-force scan equals the solver on all three controls: {finds}")


def test_criterion_09_invariant_suite(cusp, torus5, ex4, cusp_member,
                                      torus_member):
    members = [cusp_member, torus_member]
    for orientation, seed in ((+1, 21), (-1, 22)):
        p = bk.sample_generic(ex4, 0.03, seed, orientation=orientation)
        members.append(bk.build_family_member(ex4, p))
    worst = 0.0
    for fm in members:
        scale = max(1.0, max(q.max_abs_coeff() for q in fm.h) ** 2)
        worst = max(worst, fm.deformed.conformality_residual() / scale)
        assert fm.deformed.conformality_residual() <= 1e-12 * scale

    # accepted generic parameters leave no branch point in |z| <= 0.9
    for fm in members[2:]:
        assert all(abs(b) > 0.9 for b in bk.branch_points(fm.deformed))

    rng = np.random.default_rng(31)
    checked = 0
    for w in (ex4, members[2].deformed):
        for _ in range(500):
            z = rng.uniform(0.05, 0.95) * np.exp(2j * np.pi * rng.uniform())
            P = bk.tangent_plane(w, z)
            assert abs(P[0] * P[5] - P[1] * P[4] + P[2] * P[3]) < 1e-12
            assert abs(np.linalg.norm(P) - 1.0) < 1e-12
            checked += 1
    assert checked == 1000
    _ok(9, f"conformality residual <= 1e-12 (worst {worst:.2e}); deformed maps "
           "immersed in |z|<=0.9; 1000 tangent planes simple and unit")


def test_criterion_10_negative_orientation_report(ex4):
    p = bk.sample_generic(ex4, 0.01, 3, orientation=-1)
    rep = bk.orientation_identity_report(ex4, p, eta=1e-2)
    assert rep["D_minus"] >= 0
    assert isinstance(rep["e_right_handed"], int)
    assert rep["matched_convention"] in {"+", "-", "both", "none"}
    assert abs(rep["e_gauss"] - rep["e_right_handed"]) <= 0.1
    _ok(10, "negative family documented outcome: "
            f"D-={rep['D_minus']} (total {rep['D_total']}), "
            f"e={rep['e_right_handed']} / reversed {rep['e_reversed']}, "
            f"2D- = e-(N-1): {rep['identity_plus_convention']}, "
            f"2D- = -e-(N-1): {rep['identity_minus_convention']}, "
            f"matched convention: '{rep['matched_convention']}'")
