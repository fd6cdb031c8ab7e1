import json
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import branchknot as bk
from branchknot.cpoly import CPoly
from branchknot.deformation import relabel_orders
from branchknot.errors import SamplingExhausted


DATA = Path(__file__).resolve().parent.parent / "data"

# lengths of A and B on each base map, the same for both orientations
PARAM_SIZES = {"cusp": (2, 3), "torus5": (2, 5), "ex4": (2, 3),
               "mixed_strong": (2, 3)}


@pytest.fixture(scope="module")
def bases(cusp, torus5, ex4):
    mixed = json.loads((DATA / "mixed_strong.json").read_text())
    return {"cusp": cusp, "torus5": torus5, "ex4": ex4,
            "mixed_strong": bk.WeierstrassData.from_json_dict(mixed)}


def ball_vector(size):
    """A complex vector of norm <= 1."""
    return st.lists(st.complex_numbers(max_magnitude=1.0, allow_nan=False,
                                       allow_infinity=False),
                    min_size=size, max_size=size).map(
        lambda v: np.array(v) / max(1.0, np.linalg.norm(v)))


@st.composite
def family_draws(draw):
    name = draw(st.sampled_from(sorted(PARAM_SIZES)))
    nA, nB = PARAM_SIZES[name]
    t = draw(st.floats(0.0, 0.1, exclude_min=True))
    return name, bk.PerturbParams(A=t * draw(ball_vector(nA)),
                                  B=t * draw(ball_vector(nB)),
                                  orientation=draw(st.sampled_from([1, -1])),
                                  t=t)


def coeffs_equal(p, q):
    return p.coeffs.shape == q.coeffs.shape and np.array_equal(p.coeffs, q.coeffs)


class TestBuild:
    def test_zero_params_reproduce_base(self, ex4):
        p = bk.PerturbParams(A=[0, 0], B=[0, 0, 0], orientation=+1, t=0.0)
        fm = bk.build_family_member(ex4, p)
        for h, f in zip(fm.h, ex4.fprime):
            assert coeffs_equal(h, f)
        for a, b in zip(fm.deformed.f, ex4.f):
            assert coeffs_equal(a, b)

    def test_hand_expanded_member(self, ex4):
        a0, b0 = 0.03 + 0.01j, -0.02j
        p = bk.PerturbParams(A=[a0, 0], B=[b0, 0, 0], orientation=+1, t=0.05)
        fm = bk.build_family_member(ex4, p)
        # base factors: g = (1, -1, 1, 1), orders (1, 3, 2, 2)
        assert coeffs_equal(fm.h[0], CPoly([a0, 1]))
        assert coeffs_equal(fm.h[1], CPoly([0, -b0, 0, -1]))
        assert coeffs_equal(fm.h[2], CPoly([b0, 0, 1]))
        assert coeffs_equal(fm.h[3], CPoly([0, a0, 1]))
        prod = fm.h[0] * fm.h[1] + fm.h[2] * fm.h[3]
        assert prod.max_abs_coeff() <= 1e-15

    def test_reduced_cusp_recipe(self, cusp):
        t = 0.1
        p = bk.PerturbParams(A=[0, 0], B=[-t * t, 0, 0], orientation=+1, t=t)
        fm = bk.build_family_member(cusp, p)
        assert fm.reduced
        # perturbed curve (z^2, z^3 - 3 t^2 z)
        assert coeffs_equal(fm.deformed.f[0], CPoly([0, 0, 1]))
        assert coeffs_equal(fm.deformed.f[2], CPoly([0, -3 * t * t, 0, 1]))
        assert fm.h[1].is_zero and fm.h[3].is_zero

    def test_negative_orientation_member(self, ex4):
        p = bk.PerturbParams(A=[0.01, 0], B=[0.02, 0, 0], orientation=-1, t=0.05)
        fm = bk.build_family_member(ex4, p)
        # h2 = z^(n2-n4) PB g2 = -z(z^2 + 0.02), h3 = z^(n3-n1) PA g3
        assert coeffs_equal(fm.h[1], CPoly([0, -0.02, 0, -1]))
        assert coeffs_equal(fm.h[2], CPoly([0, 0.01, 1]))
        assert coeffs_equal(fm.h[3], CPoly([0.02, 0, 1]))

    def test_param_length_validation(self, ex4):
        with pytest.raises(ValueError):
            bk.build_family_member(ex4, bk.PerturbParams(A=[0], B=[0, 0, 0]))

    def test_unit_ball_enforced(self, ex4):
        with pytest.raises(ValueError):
            bk.build_family_member(
                ex4, bk.PerturbParams(A=[2.0, 0], B=[0, 0, 0]))

    def test_conformality_of_members(self, ex4, cusp):
        rng = np.random.default_rng(3)
        for w, nb in ((ex4, 3), (cusp, 3)):
            for orientation in (+1, -1):
                p = bk.PerturbParams(
                    A=0.05 * (rng.standard_normal(2) + 1j * rng.standard_normal(2)),
                    B=0.05 * (rng.standard_normal(nb) + 1j * rng.standard_normal(nb)),
                    orientation=orientation, t=0.05)
                fm = bk.build_family_member(w, p)
                scale = max(1.0, max(q.max_abs_coeff() for q in fm.h) ** 2)
                assert fm.deformed.conformality_residual() <= 1e-12 * scale

    def test_relabeling_reordered_input(self):
        # same four components with the pairs exchanged: minimal order
        # returns to slot 1 via the pair swap
        with pytest.warns(UserWarning, match="normal form"):
            w = bk.load([CPoly([0, 0, 1]), CPoly([0, 0, 1]),
                         CPoly([0, 1]), CPoly([0, 0, 0, -1])])
        relabeled, perm = relabel_orders(w)
        assert perm == (2, 3, 0, 1)
        assert relabeled.orders == (1, 3, 2, 2)
        p = bk.PerturbParams(A=[0.01, 0], B=[0.01, 0, 0], orientation=+1, t=0.05)
        fm = bk.build_family_member(w, p)
        assert fm.deformed.conformality_residual() <= 1e-12


@settings(max_examples=50, deadline=None)
@given(family_draws())
def test_members_stay_conformal(bases, draw):
    name, p = draw
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fm = bk.build_family_member(bases[name], p)
    # a draw with a0 = b0 = 0 leaves a branch point at 0, which the
    # member's load reports as outside normal form; no other warning may come
    for w in caught:
        assert "not in branch normal form" in str(w.message)
        assert fm.deformed.N > 1
    scale = max(1.0, max(q.max_abs_coeff() for q in fm.h) ** 2)
    assert fm.deformed.conformality_residual() <= 1e-12 * scale


class TestContinuity:
    def test_member_approaches_base(self, ex4):
        rng = np.random.default_rng(7)
        dirA = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        dirB = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        dirA /= np.linalg.norm(dirA)
        dirB /= np.linalg.norm(dirB)
        zs = 0.7 * np.exp(2j * np.pi * np.arange(64) / 64)
        gaps = []
        for s in (1e-1, 1e-2, 1e-3):
            p = bk.PerturbParams(A=s * dirA, B=s * dirB, orientation=+1, t=s)
            fm = bk.build_family_member(ex4, p)
            gap = np.max(np.linalg.norm(
                bk.evaluate_F(fm.deformed, zs) - bk.evaluate_F(ex4, zs), axis=1))
            gaps.append(gap)
        assert gaps[0] > gaps[1] > gaps[2]
        # roughly linear decay in the perturbation size
        assert gaps[1] < 0.2 * gaps[0]
        assert gaps[2] < 0.2 * gaps[1]


class TestX1:
    def test_zero_params_rejected(self, ex4):
        assert not bk.check_X1(bk.PerturbParams(A=[0, 0], B=[0, 0, 0]), ex4)

    def test_simple_nonzero_roots_accepted(self, ex4):
        p = bk.PerturbParams(A=[0.1, 0], B=[0.04, 0, 0])
        assert bk.check_X1(p, ex4)

    def test_double_root_rejected(self):
        w = bk.load([CPoly([0, 0, 1]), CPoly([0, 0, 0, 0, -1]),
                     CPoly([0, 0, 0, 1]), CPoly([0, 0, 0, 1])])
        assert w.orders == (2, 4, 3, 3)
        # A factor (z + 0.1)^2 has a double root
        p = bk.PerturbParams(A=[0.01, 0.2, 0], B=[0.001, 0, 0, 0])
        assert not bk.check_X1(p, w)

    def test_shared_root_rejected(self, ex4):
        # A factor root -0.1; B factor (z+0.1)(z-0.2) shares it: a shared
        # root is a common zero of all four perturbed components
        p = bk.PerturbParams(A=[0.1, 0], B=[-0.02, -0.1, 0])
        assert not bk.check_X1(p, ex4)
        # same B with the shared root moved off passes
        p_ok = bk.PerturbParams(A=[0.1, 0], B=[-0.03, -0.05, 0])
        assert bk.check_X1(p_ok, ex4)


class TestSampling:
    def test_deterministic(self, ex4):
        p1 = bk.sample_generic(ex4, 0.05, 1)
        p2 = bk.sample_generic(ex4, 0.05, 1)
        assert np.array_equal(p1.A, p2.A) and np.array_equal(p1.B, p2.B)

    def test_scale_bound_and_x1(self, ex4):
        p = bk.sample_generic(ex4, 0.05, 2)
        assert np.linalg.norm(p.A) <= 0.05 and np.linalg.norm(p.B) <= 0.05
        assert bk.check_X1(p, ex4)

    def test_zero_scale_rejected(self, ex4):
        with pytest.raises(SamplingExhausted):
            bk.sample_generic(ex4, 0.0, 1)

    def test_deformed_is_immersion(self, ex4):
        p = bk.sample_generic(ex4, 0.02, 5)
        fm = bk.build_family_member(ex4, p)
        assert all(abs(b) > 0.9 for b in bk.branch_points(fm.deformed))


class TestGaussInvariance:
    def setup_method(self):
        self.ring = 0.3 * np.exp(2j * np.pi * np.arange(100) / 100)

    def test_plus_family_preserves_first_chart(self, ex4):
        p = bk.PerturbParams(A=[0.02 + 0.01j, -0.01], B=[0.03, 0.01j, 0.005],
                             orientation=+1, t=0.05)
        fm = bk.build_family_member(ex4, p)
        assert bk.gauss_invariance_residual(fm, self.ring) <= 1e-10

    def test_minus_family_preserves_second_chart(self, ex4):
        p = bk.PerturbParams(A=[0.02 + 0.01j, -0.01], B=[0.03, 0.01j, 0.005],
                             orientation=-1, t=0.05)
        fm = bk.build_family_member(ex4, p)
        assert bk.gauss_invariance_residual(fm, self.ring) <= 1e-10

    def test_zero_params_zero_residual(self, ex4):
        p = bk.PerturbParams(A=[0, 0], B=[0, 0, 0], orientation=+1)
        fm = bk.build_family_member(ex4, p)
        assert bk.gauss_invariance_residual(fm, self.ring) == 0.0

    def test_plus_family_disturbs_second_chart(self, ex4):
        from dataclasses import replace
        p = bk.PerturbParams(A=[0.02 + 0.01j, -0.01], B=[0.03, 0.01j, 0.005],
                             orientation=+1, t=0.05)
        fm = bk.build_family_member(ex4, p)
        crossed = replace(fm, params=replace(p, orientation=-1))
        assert bk.gauss_invariance_residual(crossed, self.ring) > 1e-4

    def test_reduced_member_residual(self, cusp):
        p = bk.PerturbParams(A=[0.01, 0], B=[-0.0025, 0, 0], orientation=+1,
                             t=0.05)
        fm = bk.build_family_member(cusp, p)
        assert bk.gauss_invariance_residual(fm, self.ring) == 0.0


class TestDeterminant:
    def make_member(self, ex4):
        p = bk.PerturbParams(A=[0.01, 0.02j], B=[0.01j, 0.003, -0.002],
                             orientation=+1, t=0.05)
        return bk.build_family_member(ex4, p)

    def test_coincident_arguments(self, ex4):
        fm = self.make_member(ex4)
        assert bk.transversality_determinant(fm, 0.2 + 0.1j, 0.2 + 0.1j) == 0
        assert bk.transversality_determinant_direct(fm, 0.2 + 0.1j, 0.2 + 0.1j) \
            == pytest.approx(0, abs=1e-15)

    def test_frozen_value(self, ex4):
        # for g = (1,-1,1,1) and unit shifts the determinant reduces to
        # |z1-z2|^2 + |z1^2-z2^2|^2/4; at (0.1, -0.1) that is 0.04
        fm = self.make_member(ex4)
        d = bk.transversality_determinant(fm, 0.1, -0.1)
        assert d == pytest.approx(0.04, rel=1e-12)

    def test_closed_form_identity(self, ex4):
        fm = self.make_member(ex4)
        rng = np.random.default_rng(21)
        for _ in range(50):
            z1 = rng.uniform(-0.5, 0.5) + 1j * rng.uniform(-0.5, 0.5)
            z2 = rng.uniform(-0.5, 0.5) + 1j * rng.uniform(-0.5, 0.5)
            expect = abs(z1 - z2) ** 2 + abs(z1 ** 2 - z2 ** 2) ** 2 / 4
            got = bk.transversality_determinant(fm, z1, z2)
            assert got == pytest.approx(expect, rel=1e-12)

    def test_direct_agrees(self, ex4):
        fm = self.make_member(ex4)
        rng = np.random.default_rng(22)
        for _ in range(100):
            z1 = rng.uniform(-0.5, 0.5) + 1j * rng.uniform(-0.5, 0.5)
            z2 = rng.uniform(-0.5, 0.5) + 1j * rng.uniform(-0.5, 0.5)
            d1 = bk.transversality_determinant(fm, z1, z2)
            d2 = bk.transversality_determinant_direct(fm, z1, z2)
            assert abs(d1 - d2) <= 1e-10 * max(1e-30, abs(d1))

    def test_swap_invariance(self, ex4):
        fm = self.make_member(ex4)
        a, b = 0.3 + 0.1j, -0.2j
        assert bk.transversality_determinant(fm, a, b) == \
            pytest.approx(bk.transversality_determinant(fm, b, a), rel=1e-14)

    def test_minus_family_determinant(self, ex4):
        p = bk.PerturbParams(A=[0.01, 0], B=[0.01, 0, 0], orientation=-1, t=0.05)
        fm = bk.build_family_member(ex4, p)
        rng = np.random.default_rng(23)
        for _ in range(50):
            z1 = rng.uniform(-0.4, 0.4) + 1j * rng.uniform(-0.4, 0.4)
            z2 = rng.uniform(-0.4, 0.4) + 1j * rng.uniform(-0.4, 0.4)
            d1 = bk.transversality_determinant(fm, z1, z2)
            d2 = bk.transversality_determinant_direct(fm, z1, z2)
            assert abs(d1 - d2) <= 1e-10 * max(1e-30, abs(d1))

    def test_reduced_member_determinant(self, cusp_member):
        # only the first product survives; with constant factors g1 = 2,
        # g3 = 3 the antiderivative differences are 2*(z1-z2), 3*(z1-z2)
        d = bk.transversality_determinant(cusp_member, 0.1, -0.1)
        assert d == pytest.approx(0.4 * 0.6, rel=1e-12)


def test_params_json_round_trip():
    p = bk.PerturbParams(A=[0.1 + 0.2j, 0], B=[0.3, -0.1j], orientation=-1, t=0.25)
    q = bk.PerturbParams.from_json_dict(p.to_json_dict())
    assert np.array_equal(p.A, q.A) and np.array_equal(p.B, q.B)
    assert q.orientation == -1 and q.t == 0.25
