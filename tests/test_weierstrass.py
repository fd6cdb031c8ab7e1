import math

import numpy as np
import pytest

import branchknot as bk
from branchknot.cpoly import CPoly
from branchknot.errors import (
    ConformalityViolation,
    DegeneratePlane,
    GaussCrossCheckFailure,
    IndeterminateGauss,
    OrderMismatch,
)
from branchknot.weierstrass import E12, H0, K0, GaussValue, TwoVector, wedge


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


class TestTwoVectors:
    def test_hodge_basis_action(self):
        e12 = TwoVector([1, 0, 0, 0, 0, 0])
        assert np.allclose(bk.hodge_star(e12).components, [0, 0, 0, 0, 0, 1])
        e13 = TwoVector([0, 1, 0, 0, 0, 0])
        assert np.allclose(bk.hodge_star(e13).components, [0, 0, 0, 0, -1, 0])

    def test_hodge_involution(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            v = TwoVector(rng.standard_normal(6))
            assert np.allclose(bk.hodge_star(bk.hodge_star(v)).components,
                               v.components)

    def test_split_of_reference_plane(self):
        H, K = bk.grassmann_split(E12)
        s = 1 / math.sqrt(2)
        assert np.allclose(H.components, [s, 0, 0, 0, 0, s])
        assert np.allclose(K.components, [s, 0, 0, 0, 0, -s])

    def test_split_of_dual_plane(self):
        e34 = TwoVector([0, 0, 0, 0, 0, 1])
        H, K = bk.grassmann_split(e34)
        assert np.allclose(H.components, H0.components)
        assert np.allclose(K.components, -K0.components)

    def test_split_norms_and_reassembly(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            u = rng.standard_normal(4)
            v = rng.standard_normal(4)
            P = wedge(u, v)
            if P.norm < 1e-3:
                continue
            P = TwoVector(P.components / P.norm)
            H, K = bk.grassmann_split(P)
            assert abs(H.norm - 1) < 1e-12
            assert abs(K.norm - 1) < 1e-12
            back = (H + K) * (1 / math.sqrt(2))
            assert np.abs(back.components - P.components).max() < 1e-14


class TestTangentPlane:
    def test_flat_plane(self, flat):
        P = bk.tangent_plane(flat, 0.3 + 0.1j)
        assert np.allclose(P.components, E12.components)

    def test_plucker_and_norm(self, ex4):
        rng = np.random.default_rng(6)
        for _ in range(100):
            z = rng.uniform(0.1, 0.9) * np.exp(2j * np.pi * rng.uniform())
            P = bk.tangent_plane(ex4, z)
            assert abs(P.plucker()) < 1e-12
            assert abs(P.norm - 1) < 1e-12

    def test_limit_at_branch_point(self, ex4):
        P = bk.tangent_plane(ex4, 1e-3)
        assert np.abs(P.components - E12.components).max() < 1e-2

    def test_degenerate_at_branch(self, ex4):
        with pytest.raises(DegeneratePlane):
            bk.tangent_plane(ex4, 0.0)


class TestSymplectic:
    def test_reference_values(self):
        s = 1 / math.sqrt(2)
        e1, e2, e3 = np.eye(4)[0], np.eye(4)[1], np.eye(4)[2]
        assert abs(bk.symplectic_form(H0, e1, e2) - s) < 1e-15
        assert bk.symplectic_form(H0, e1, e1) == 0.0
        assert abs(bk.symplectic_form(H0, e1, e3)) < 1e-15

    def test_orientation_reversal_flips_sign(self):
        e1, e2 = np.eye(4)[0], np.eye(4)[1]
        assert bk.symplectic_form(H0, e2, e1) < 0

    def test_flat_plane_value(self, flat):
        v = bk.symplectic_positivity(flat, 0.2, +1)
        assert abs(v - 1 / math.sqrt(2)) < 1e-14

    def test_positive_near_branch_point(self, ex4):
        for z in 0.01 * np.exp(2j * np.pi * np.arange(64) / 64):
            assert bk.symplectic_positivity(ex4, z, +1) > 0
            assert bk.symplectic_positivity(ex4, z, -1) > 0


class TestGaussMaps:
    def test_complex_curve_chart(self, cusp):
        gp, gm = bk.gauss_maps(cusp, 0.3)
        assert gp is not None and gp.at_infinity
        assert gm is None

    def test_four_function_values(self, ex4):
        gp, gm = bk.gauss_maps(ex4, 0.5)
        assert abs(gp.value - (-2.0)) < 1e-12
        assert abs(gm.value - 2.0) < 1e-12

    def test_quotient_matches_differential_route(self, ex4):
        # gauss_maps raises internally when the two routes disagree
        rng = np.random.default_rng(10)
        for _ in range(100):
            z = rng.uniform(0.05, 0.9) * np.exp(2j * np.pi * rng.uniform())
            bk.gauss_maps(ex4, z)

    def test_cross_check_failure_is_named(self, ex4):
        with pytest.raises(GaussCrossCheckFailure):
            bk.gauss_maps(ex4, 0.5, cross_check_tol=-1.0)

    def test_indeterminate_at_branch_point(self, ex4):
        with pytest.raises(IndeterminateGauss):
            bk.gauss_maps(ex4, 0.0)

    def test_chordal_distance(self):
        inf = GaussValue(0, True)
        assert inf.chordal_distance(GaussValue(0, True)) == 0.0
        assert abs(inf.chordal_distance(GaussValue(0j)) - 2.0) < 1e-15
        a, b = GaussValue(1.0 + 0j), GaussValue(1.0 + 1e-8j)
        assert a.chordal_distance(b) < 1e-7
