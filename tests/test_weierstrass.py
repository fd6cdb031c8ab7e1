import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import branchknot as bk
from branchknot import weierstrass
from branchknot.cpoly import CPoly
from branchknot.errors import (
    ConformalityViolation,
    DegeneratePlane,
    GaussCrossCheckFailure,
    IndeterminateGauss,
    OrderMismatch,
)
from branchknot.weierstrass import _sphere_point


class TestLoad:
    def test_four_function_example(self, ex4):
        assert ex4.orders == (1, 3, 2, 2)
        assert ex4.N == 2
        assert ex4.conformality_residual() == 0.0

    def test_complex_curve(self, cusp):
        assert cusp.orders == (1, math.inf, 2, math.inf)
        assert cusp.N == 2

    def test_conformality_violation(self):
        with pytest.raises(ConformalityViolation):
            bk.load([CPoly([0, 1]), CPoly([0, 0, 0, 1]),
                     CPoly([0, 0, 1]), CPoly([0, 0, 1])])

    def test_order_mismatch_through_tolerance_window(self):
        # residual 1e-8*z^2 passes conf_tol=1e-6 but the 1e-8 coefficient
        # is above the valuation cutoff, breaking the order balance
        with pytest.raises(OrderMismatch):
            bk.load([CPoly([0, 1]), CPoly([0, 1e-8, 0, 1]),
                     CPoly([0, 0, 1]), CPoly([0, 0, -1])], conf_tol=1e-6)

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            bk.load([CPoly.zero()] * 4)

    @pytest.mark.parametrize("conf_tol", [math.nan, math.inf, 0.0, -1e-10])
    def test_conf_tol_must_be_finite_and_positive(self, conf_tol):
        # with nan or inf the residual comparison never fires, so the
        # non-conformal map below would load
        with pytest.raises(ValueError, match="conf_tol"):
            bk.load([CPoly([0, 2]), CPoly([1]), CPoly([0, 0, 3]), CPoly.zero()],
                    conf_tol=conf_tol)

    def test_json_round_trip(self, ex4):
        again = bk.WeierstrassData.from_json_dict(ex4.to_json_dict())
        assert again.orders == ex4.orders
        for p, q in zip(again.fprime, ex4.fprime):
            assert np.array_equal(p.coeffs, q.coeffs)


class TestEvaluate:
    def test_cusp_at_one(self, cusp):
        assert np.allclose(bk.evaluate_F(cusp, 1.0), [1, 0, 1, 0])

    def test_origin(self, ex4):
        assert np.allclose(bk.evaluate_F(ex4, 0.0), 0.0)

    def test_four_function_at_one(self, ex4):
        assert np.allclose(bk.evaluate_F(ex4, 1.0), [0.25, 0, 2 / 3, 0])


class TestJacobian:
    def test_vanishes_at_branch_point(self, ex4):
        fx, fy = bk.jacobian(ex4, 0.0)
        assert np.allclose(fx, 0) and np.allclose(fy, 0)

    def test_cusp_at_one(self, cusp):
        fx, fy = bk.jacobian(cusp, 1.0)
        assert np.allclose(fx, [2, 0, 3, 0])
        assert np.allclose(fy, [0, 2, 0, 3])

    def test_conformality_pointwise(self, ex4):
        rng = np.random.default_rng(2)
        for _ in range(100):
            z = rng.uniform(0.05, 0.95) * np.exp(2j * np.pi * rng.uniform())
            fx, fy = bk.jacobian(ex4, z)
            n2 = fx @ fx
            assert abs(fx @ fy) <= 1e-9 * n2
            assert abs(n2 - fy @ fy) <= 1e-9 * n2


class TestBranchPoints:
    def test_four_function(self, ex4):
        assert bk.branch_points(ex4) == [0j]

    def test_nonvanishing_first_component(self):
        w = bk.load([CPoly([1]), CPoly([0, 0, 0, -1]),
                     CPoly([0, 0, 1]), CPoly([0, 1])])
        assert bk.branch_points(w) == []

    def test_separated_cusp_family(self):
        t = 0.1
        w = bk.load([CPoly([0, 2]), CPoly.zero(),
                     CPoly([-3 * t * t, 0, 3]), CPoly.zero()])
        assert bk.branch_points(w) == []


E12 = np.array([1.0, 0, 0, 0, 0, 0])


def plucker(P):
    """c0*c5 - c1*c4 + c2*c3; zero iff the 2-vector is simple."""
    return P[0] * P[5] - P[1] * P[4] + P[2] * P[3]


def ring_grid():
    return (np.linspace(0.05, 0.95, 10)[:, None]
            * np.exp(2j * np.pi * np.arange(16) / 16))


class TestTangentPlane:
    def test_flat_plane(self, flat):
        P = bk.tangent_plane(flat, 0.3 + 0.1j)
        assert np.allclose(P, E12)

    def test_plucker_and_norm(self, ex4):
        rng = np.random.default_rng(6)
        for _ in range(100):
            z = rng.uniform(0.1, 0.9) * np.exp(2j * np.pi * rng.uniform())
            P = bk.tangent_plane(ex4, z)
            assert abs(plucker(P)) < 1e-12
            assert abs(np.linalg.norm(P) - 1) < 1e-12

    def test_limit_at_branch_point(self, ex4):
        P = bk.tangent_plane(ex4, 1e-3)
        assert np.abs(P - E12).max() < 1e-2

    def test_small_differential_is_not_degenerate(self):
        # z -> (z^5, z^9) at |z| = 0.01: |dF/dx ^ dF/dy| is about 2.5e-15,
        # which is |dF/dx| |dF/dy| itself
        w = bk.load([CPoly([0, 0, 0, 0, 5]), CPoly.zero(),
                     CPoly([0] * 8 + [9]), CPoly.zero()])
        P = bk.tangent_plane(w, 0.01 * np.exp(2j * np.pi * np.arange(32) / 32))
        assert np.abs(P - E12).max() < 1e-6

    def test_degenerate_at_branch(self, ex4):
        with pytest.raises(DegeneratePlane):
            bk.tangent_plane(ex4, 0.0)

    def test_array_matches_pointwise(self, ex4):
        zs = ring_grid()
        P = bk.tangent_plane(ex4, zs)
        assert P.shape == zs.shape + (6,)
        pointwise = np.array([[bk.tangent_plane(ex4, z) for z in row]
                              for row in zs])
        assert np.abs(P - pointwise).max() <= 1e-15

    def test_degenerate_anywhere_in_an_array(self, ex4):
        zs = np.array([0.5, 0.0, 0.3j])
        with pytest.raises(DegeneratePlane, match="1 of 3 points"):
            bk.tangent_plane(ex4, zs)


@st.composite
def complex_curves(draw):
    """z -> (f(z), g(z)) with f' = a p z^(p-1) and g' of order >= p.

    The only zero of f' is 0, so every z != 0 is an immersed point, and the
    data is in branch normal form.
    """
    p = draw(st.integers(1, 4))
    a = draw(st.complex_numbers(min_magnitude=0.5, max_magnitude=2.0,
                                allow_nan=False, allow_infinity=False))
    g = draw(st.lists(st.complex_numbers(max_magnitude=2.0, allow_nan=False,
                                         allow_infinity=False),
                      min_size=1, max_size=5))
    return bk.load([CPoly([0] * (p - 1) + [p * a]), CPoly.zero(),
                    CPoly([0] * p + g), CPoly.zero()])


def assert_calibrated(w):
    # e12 + e34 calibrates complex lines: P12 + P34 = 1 on every one, and
    # P12 - P34 = (|f'|^2 - |g'|^2) / (|f'|^2 + |g'|^2)
    zs = ring_grid()
    v = bk.symplectic_positivity(w, zs, +1)
    assert v.shape == zs.shape
    assert np.abs(v - 1 / math.sqrt(2)).max() <= 1e-14
    d1, d3 = np.abs(w.fprime[0](zs)) ** 2, np.abs(w.fprime[2](zs)) ** 2
    v = bk.symplectic_positivity(w, zs, -1)
    assert np.abs(v - (d1 - d3) / (d1 + d3) / math.sqrt(2)).max() <= 1e-14


class TestSymplectic:
    def test_reference_values(self, flat):
        # the flat plane e12 pairs to 1/sqrt2 with both H0 and K0
        for orientation in (+1, -1):
            v = bk.symplectic_positivity(flat, 0.2, orientation)
            assert abs(v - 1 / math.sqrt(2)) < 1e-15

    def test_orientation_reversal_flips_sign(self):
        # F = conj(z) traverses the (x1,x2)-plane with reversed orientation
        conj = bk.load([CPoly.zero(), CPoly([1]), CPoly.zero(), CPoly.zero()])
        for orientation in (+1, -1):
            v = bk.symplectic_positivity(conj, 0.2, orientation)
            assert abs(v + 1 / math.sqrt(2)) < 1e-15

    def test_flat_plane_value(self, flat):
        v = bk.symplectic_positivity(flat, 0.2, +1)
        assert abs(v - 1 / math.sqrt(2)) < 1e-14

    def test_positive_near_branch_point(self, ex4):
        for z in 0.01 * np.exp(2j * np.pi * np.arange(64) / 64):
            assert bk.symplectic_positivity(ex4, z, +1) > 0
            assert bk.symplectic_positivity(ex4, z, -1) > 0

    @pytest.mark.parametrize("name", ["cusp", "torus5"])
    def test_complex_curve_fixtures_calibrated(self, name, request):
        assert_calibrated(request.getfixturevalue(name))

    @settings(max_examples=30, deadline=None)
    @given(complex_curves())
    def test_complex_curves_calibrated(self, w):
        assert_calibrated(w)


def _ref_quotient(num: complex, den: complex):
    """The scalar Gauss value the sphere points replaced: num/den, or None
    for the point at infinity."""
    if abs(den) <= 1e-15 * abs(num):
        return None
    return num / den


def _ref_chordal_distance(a, b) -> float:
    """The scalar route's distance on the sphere of diameter 2."""
    if a is None and b is None:
        return 0.0
    if a is None:
        return 2.0 / math.sqrt(1.0 + abs(b) ** 2)
    if b is None:
        return 2.0 / math.sqrt(1.0 + abs(a) ** 2)
    return 2.0 * abs(a - b) / math.sqrt((1 + abs(a) ** 2) * (1 + abs(b) ** 2))


def _ref_gauss_value(w, z: complex, idx: int):
    """One chart of the scalar route at one point (None for infinity)."""
    num_poly, sign = ((w.fprime[2], 1.0), (w.fprime[3], -1.0))[idx]
    return _ref_quotient(sign * num_poly(z), w.fprime[1](z))


# 0, or a modulus from 1e-8 to 1e8 at any argument
_gauss_values = st.one_of(
    st.just(0j),
    st.builds(lambda m, a: 10.0 ** m * complex(math.cos(a), math.sin(a)),
              st.floats(-8, 8), st.floats(0, 2 * math.pi)))


class TestGaussMaps:
    def test_complex_curve_chart(self, cusp):
        gp, gm = bk.gauss_maps(cusp, 0.3)
        # f2' = 0: the pole
        assert gp.tolist() == [0.0, 0.0, 1.0]
        assert gm is None

    def test_four_function_values(self, ex4):
        # g+ = -2 and g- = 2 at z = 0.5
        gp, gm = bk.gauss_maps(ex4, 0.5)
        assert np.abs(gp - [-0.8, 0.0, 0.6]).max() < 1e-12
        assert np.abs(gm - [0.8, 0.0, 0.6]).max() < 1e-12

    def test_chordal_distance(self):
        pole = _sphere_point(1.0, 0.0, 1.0)
        assert pole.tolist() == [0.0, 0.0, 1.0]
        assert abs(np.linalg.norm(pole - _sphere_point(0.0, 1.0, 1.0)) - 2.0) < 1e-15
        a, b = _sphere_point(1.0, 1.0, 1.0), _sphere_point(1.0 + 1e-8j, 1.0, 1.0)
        assert np.linalg.norm(a - b) < 1e-7
        with pytest.raises(IndeterminateGauss):
            _sphere_point([1.0, 1e-14], [0.0, 0.0], 1.0)

    @settings(max_examples=200, deadline=None)
    @given(_gauss_values, _gauss_values, _gauss_values, _gauss_values)
    @example(1.0 + 0j, 0j, 0j, 1.0 + 0j)   # infinity against 0
    @example(1e8 + 0j, 1e-8 + 0j, 1.0 + 0j, 0j)   # inside the old flag band
    def test_distance_matches_scalar_route(self, n1, d1, n2, d2):
        assume(n1 or d1)
        assume(n2 or d2)
        p, q = _sphere_point(n1, d1, 1.0), _sphere_point(n2, d2, 1.0)
        assert abs(np.linalg.norm(p) - 1.0) < 1e-15
        ref = _ref_chordal_distance(_ref_quotient(n1, d1), _ref_quotient(n2, d2))
        assert abs(np.linalg.norm(p - q) - ref) < 4e-15

    @pytest.mark.parametrize("which", ["ex4", "minus_member", "cusp"])
    def test_grid_equals_pointwise(self, which, request, sampled_members):
        w = (sampled_members["four_function", 1, -1].deformed
             if which == "minus_member" else request.getfixturevalue(which))
        zz = (np.linspace(0.05, 0.9, 10)[:, None]
              * np.exp(2j * np.pi * np.arange(16) / 16)[None, :])
        grid = bk.gauss_maps(w, zz)
        for g in grid:
            assert g is None or g.shape == (10, 16, 3)
        for i, j in np.ndindex(zz.shape):
            for g, point in zip(grid, bk.gauss_maps(w, complex(zz[i, j]))):
                assert (g is None) == (point is None)
                if g is not None:
                    assert np.abs(g[i, j] - point).max() <= 1e-15

    def test_invariance_residual_matches_scalar_route(self, sampled_members):
        ring = 0.3 * np.exp(2j * np.pi * np.arange(100) / 100)
        for fm in sampled_members.values():
            idx = 0 if (fm.reduced or fm.params.orientation > 0) else 1
            ref = max(_ref_chordal_distance(_ref_gauss_value(fm.base, z, idx),
                                            _ref_gauss_value(fm.deformed, z, idx))
                      for z in ring)
            got = bk.gauss_invariance_residual(fm, ring)
            assert abs(got - ref) <= 1e-15
            if fm.reduced:
                assert got == 0.0

    def test_quotient_matches_differential_route(self, ex4):
        # gauss_maps raises internally when the two routes disagree
        rng = np.random.default_rng(10)
        for _ in range(100):
            z = rng.uniform(0.05, 0.9) * np.exp(2j * np.pi * rng.uniform())
            bk.gauss_maps(ex4, z)

    @pytest.mark.parametrize("orientation", [+1, -1])
    def test_continuous_through_shared_roots(self, orientation,
                                             sampled_members):
        # on a four-function member PB divides f2' and the slot it carries
        # (f3' for +, f4' for -), so one quotient of a chart is 0/0 at both
        # roots of PB although the map is immersed there; the other
        # quotient keeps the chart defined and continuous through them
        w = sampled_members["four_function", 1, orientation].deformed
        roots = [r for r in w.fprime[1].roots() if abs(r) > 1e-6]
        assert len(roots) == 2 and not bk.branch_points(w)
        for r in roots:
            at_root = bk.gauss_maps(w, r)
            for k in range(2, 17):
                off = 10.0 ** -k * np.exp(0.25j * np.pi)
                for g, g0 in zip(bk.gauss_maps(w, r + off), at_root):
                    assert np.linalg.norm(g - g0) <= 10.0 ** (1 - k) + 1e-15

    def test_cross_check_failure_is_named(self, ex4, monkeypatch):
        monkeypatch.setattr(weierstrass, "_CROSS_CHECK_TOL", -1.0)
        with pytest.raises(GaussCrossCheckFailure):
            bk.gauss_maps(ex4, 0.5)

    def test_indeterminate_at_branch_point(self, ex4):
        with pytest.raises(IndeterminateGauss):
            bk.gauss_maps(ex4, 0.0)

