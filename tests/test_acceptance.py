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

    rep = bk.verify_double_point_formula(fm.base, fm.deformed, eta=1e-2)
    assert rep.N == 2 and rep.e == 3 and rep.D == 1
    assert 2 * rep.D == rep.e - (rep.N - 1)
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    _ok(1, f"cusp: D=1 pair=+-sqrt(3)t e=3 N=2, 2*1 = 3-1  [{elapsed:.1f}s]")


def test_criterion_02_higher_torus(torus5):
    start = time.monotonic()
    c = -1e-4
    p = bk.PerturbParams(A=[0, 0], B=[c / 5, 0, 0, 0, 0], orientation=+1, t=0.1)
    fm = bk.build_family_member(torus5, p)
    rep = bk.verify_double_point_formula(fm.base, fm.deformed, eta=0.02)
    assert rep.D == 2 and rep.e == 5 and rep.N == 2
    assert 2 * rep.D == rep.e - (rep.N - 1)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _ok(2, f"torus: D=2 e=5 N=2, 4 = 5-1  [{elapsed:.1f}s]")


def test_criterion_03_unbranched_control(flat):
    rep = bk.verify_double_point_formula(flat, eta=0.5)
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
        fm = bk.sample_generic(ex4, 0.05, 11, orientation=orientation)
        residuals[orientation] = bk.gauss_invariance_residual(fm, ring)
        assert residuals[orientation] <= 1e-10
    _ok(4, "four-function family: gamma+ residual "
           f"{residuals[+1]:.2e}, gamma- residual {residuals[-1]:.2e}")


def test_criterion_05_determinant_cross_check(sampled_members):
    # the lemma the sampler rests on: off the diagonal the pair-separation
    # determinant is bounded below by |z1 - z2|^2 on the disk |z| <= 0.5, the
    # old per-draw search disk, so almost every draw has only transverse
    # double points
    def spirals(phase):
        k = np.arange(1, 51)
        turn = np.sqrt(k / 50) * np.exp(1j * (2.399963 * k + phase))
        return np.concatenate([0.05 * turn, 0.5 * turn])

    z1s, z2s = spirals(0.0), spirals(1.7)
    minima = {}
    for stem in ("cusp", "torus5", "four_function", "mixed_strong"):
        for orientation in (+1, -1):
            fm = sampled_members[stem, 1, orientation]
            d = bk.transversality_determinant(fm, z1s[:, None], z2s)
            # the 4x4 route on every tenth point of each spiral pair
            for i in range(0, 100, 10):
                for j in range(0, 100, 10):
                    d2 = bk.transversality_determinant_direct(fm, z1s[i], z2s[j])
                    assert abs(d[i, j] - d2) <= 1e-10 * abs(d[i, j])
            c_low = float((np.abs(d) / np.abs(z1s[:, None] - z2s) ** 2).min())
            assert c_low > 1e-6
            minima[f"{stem}{'+' if orientation > 0 else '-'}"] = c_low
    _ok(5, "determinant routes agree to 1e-10; min |det|/|dz|^2 on the "
           "100x100 spiral pairs in |z| <= 0.5: "
           + ", ".join(f"{k} {v:.4f}" for k, v in minima.items()))


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
        members.append(bk.sample_generic(ex4, 0.03, seed,
                                         orientation=orientation))
    worst = 0.0
    for fm in members:
        scale = max(1.0, max(q.max_abs_coeff()
                             for q in fm.deformed.fprime) ** 2)
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
    # orientation - in its own convention: 2 (D+ - D-) = sigma e - (N-1)
    # with sigma = -1, where e is the crossing sum of the deformed map's
    # slice and a double point in the ball has sign sigma * sign(det)
    sigma, eta = -1, 1e-2
    fm = bk.sample_generic(ex4, 0.01, 3, orientation=sigma)
    dps = bk.find_double_points(fm.deformed, radius=0.5, grid_n=48)
    in_ball = [dp for dp in dps if np.linalg.norm(dp.image) < eta]
    signed = sum(sigma * int(np.sign(dp.transversality_det)) for dp in in_ball)
    k = bk.trace_slice(fm.deformed, eta)
    b = bk.braid_from_knot(k)
    e, N = bk.algebraic_crossing_number(b), ex4.N
    lk = bk.linking_number_gauss(k)
    assert b.n_strands == N
    assert abs(lk - e) <= 1e-6
    assert 2 * signed == sigma * e - (N - 1)
    _ok(10, f"negative family in its own convention: {len(in_ball)} double "
            f"points in the ball (total {len(dps)}), signed sum {signed}, "
            f"e={e} (gauss {lk:.6f}), 2*{signed} = {sigma}*({e})-({N}-1)")
