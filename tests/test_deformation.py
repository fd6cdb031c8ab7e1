import itertools
import json
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import branchknot as bk
from branchknot import _kernels, deformation
from branchknot.cpoly import CPoly
from branchknot.deformation import relabel_orders
from branchknot.errors import SamplingExhausted, SecondBranchPoint


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
        for h, f in zip(fm.deformed.fprime, ex4.fprime):
            assert coeffs_equal(h, f)
        for a, b in zip(fm.deformed.f, ex4.f):
            assert coeffs_equal(a, b)

    def test_hand_expanded_member(self, ex4):
        a0, b0 = 0.03 + 0.01j, -0.02j
        p = bk.PerturbParams(A=[a0, 0], B=[b0, 0, 0], orientation=+1, t=0.05)
        fm = bk.build_family_member(ex4, p)
        # base factors: g = (1, -1, 1, 1), orders (1, 3, 2, 2)
        assert coeffs_equal(fm.deformed.fprime[0], CPoly([a0, 1]))
        assert coeffs_equal(fm.deformed.fprime[1], CPoly([0, -b0, 0, -1]))
        assert coeffs_equal(fm.deformed.fprime[2], CPoly([b0, 0, 1]))
        assert coeffs_equal(fm.deformed.fprime[3], CPoly([0, a0, 1]))
        prod = (fm.deformed.fprime[0] * fm.deformed.fprime[1]
                + fm.deformed.fprime[2] * fm.deformed.fprime[3])
        assert prod.max_abs_coeff() <= 1e-15

    def test_reduced_cusp_recipe(self, cusp):
        t = 0.1
        p = bk.PerturbParams(A=[0, 0], B=[-t * t, 0, 0], orientation=+1, t=t)
        fm = bk.build_family_member(cusp, p)
        assert fm.reduced
        # perturbed curve (z^2, z^3 - 3 t^2 z)
        assert coeffs_equal(fm.deformed.f[0], CPoly([0, 0, 1]))
        assert coeffs_equal(fm.deformed.f[2], CPoly([0, -3 * t * t, 0, 1]))
        assert fm.deformed.fprime[1].is_zero and fm.deformed.fprime[3].is_zero

    def test_negative_orientation_member(self, ex4):
        p = bk.PerturbParams(A=[0.01, 0], B=[0.02, 0, 0], orientation=-1, t=0.05)
        fm = bk.build_family_member(ex4, p)
        # h2 = z^(n2-n4) PB g2 = -z(z^2 + 0.02), h3 = z^(n3-n1) PA g3
        assert coeffs_equal(fm.deformed.fprime[1], CPoly([0, -0.02, 0, -1]))
        assert coeffs_equal(fm.deformed.fprime[2], CPoly([0, 0.01, 1]))
        assert coeffs_equal(fm.deformed.fprime[3], CPoly([0.02, 0, 1]))

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
                scale = max(1.0, max(q.max_abs_coeff()
                                     for q in fm.deformed.fprime) ** 2)
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
    scale = max(1.0, max(q.max_abs_coeff()
                         for q in fm.deformed.fprime) ** 2)
    assert fm.deformed.conformality_residual() <= 1e-12 * scale


@dataclass(frozen=True)
class StubPoly:
    """A component known only by its vanishing order (inf: zero)."""

    order: float

    @property
    def is_zero(self):
        return self.order == math.inf


@dataclass(frozen=True)
class StubData:
    fprime: tuple
    conf_tol: float = 1e-10

    @property
    def orders(self):
        return tuple(p.order for p in self.fprime)


def stub_load(fprime, conf_tol=1e-10):
    return StubData(tuple(fprime), conf_tol)


def reference_relabel(w):
    """The relabel rule as it stood with a lookup table for full data and
    swaps for complex curves; the reference for relabel_orders."""
    zeros = [i for i in range(4) if w.fprime[i].is_zero]
    if len(zeros) == 0:
        imin = min(range(4), key=lambda i: (w.orders[i], i))
        perm = {0: (0, 1, 2, 3), 1: (1, 0, 2, 3),
                2: (2, 3, 0, 1), 3: (3, 2, 0, 1)}[imin]
    elif len(zeros) == 2:
        p = [0, 1, 2, 3]
        if w.fprime[p[0]].is_zero:
            p[0], p[1] = p[1], p[0]
        if w.fprime[p[2]].is_zero:
            p[2], p[3] = p[3], p[2]
        if w.fprime[p[0]].is_zero or w.fprime[p[2]].is_zero:
            raise ValueError("both zero components lie in one coordinate pair")
        if w.orders[p[2]] < w.orders[p[0]]:
            p = [p[2], p[3], p[0], p[1]]
        perm = tuple(p)
    else:
        raise ValueError("family construction needs at least f1' and f3' nonzero "
                         f"after normalization (got {4 - len(zeros)} nonzero)")

    if perm == (0, 1, 2, 3):
        return w, perm
    inversions = sum(1 for i in range(4) for j in range(i + 1, 4)
                     if perm[i] > perm[j])
    if inversions % 2:
        warnings.warn("order relabeling reflects one coordinate plane; braid "
                      "sign conventions apply in the relabeled frame",
                      stacklevel=2)
    return stub_load(tuple(w.fprime[p] for p in perm), conf_tol=w.conf_tol), perm


def relabel_outcome(rule, w):
    """(relabeled data or None, perm or error text, number of warnings)
    of one relabel call."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            relabeled, result = rule(w)
        except ValueError as exc:
            relabeled, result = None, str(exc)
    return relabeled, result, len(caught)


def test_relabel_rule_matches_reference(monkeypatch):
    # every pattern of orders in {inf, 0, 1, 2, 3}^4 but the all-zero one,
    # on stub data so that patterns load would refuse are covered too
    monkeypatch.setattr(deformation, "load", stub_load)
    patterns = [o for o in itertools.product((math.inf, 0, 1, 2, 3), repeat=4)
                if o != (math.inf,) * 4]
    assert len(patterns) == 624
    accepted = 0
    for orders in patterns:
        w = stub_load(StubPoly(o) for o in orders)
        relabeled, perm, n_warnings = relabel_outcome(relabel_orders, w)
        assert (relabeled, perm, n_warnings) == \
            relabel_outcome(reference_relabel, w), orders
        if relabeled is not None:
            accepted += 1
            assert relabeled.orders == tuple(orders[k] for k in perm)
            assert relabel_outcome(relabel_orders, relabeled) == \
                (relabeled, (0, 1, 2, 3), 0)
    assert accepted == 320


def mirror(w):
    """w under x4 -> -x4: f3' and f4' exchanged."""
    f = w.fprime
    return bk.load([f[0], f[1], f[3], f[2]], conf_tol=w.conf_tol)


class TestMirror:
    # orientation - is the + recipe on the x4-mirror of the data
    @pytest.mark.parametrize("name", ["ex4", "mixed_strong"])
    def test_minus_member_is_the_mirrored_plus_member(self, bases, name):
        w, (nA, nB) = bases[name], PARAM_SIZES[name]
        rng = np.random.default_rng(31)
        ring = 0.3 * np.exp(2j * np.pi * np.arange(100) / 100)
        for _ in range(20):
            A, B = (0.05 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
                    / math.sqrt(2 * n) for n in (nA, nB))
            minus = bk.build_family_member(
                w, bk.PerturbParams(A=A, B=B, orientation=-1, t=0.05))
            plus = bk.build_family_member(
                mirror(w), bk.PerturbParams(A=A, B=B, orientation=+1, t=0.05))
            for h, k in zip(minus.deformed.fprime, (0, 1, 3, 2)):
                assert coeffs_equal(h, plus.deformed.fprime[k])
            assert all(coeffs_equal(a, b)
                       for a, b in zip(minus.det_polys, plus.det_polys))
            assert bk.gauss_invariance_residual(minus, ring) == \
                bk.gauss_invariance_residual(plus, ring)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_sampler_accepts_the_mirrored_draw(self, bases, sampled_members,
                                               seed):
        # the same draws, so the same A and B; the double points sit at the
        # same preimages, with x4 and the determinant's sign reversed
        minus = sampled_members["mixed_strong", seed, -1]
        plus = bk.sample_generic(mirror(bases["mixed_strong"]), 0.05, seed,
                                 orientation=+1)
        assert np.array_equal(minus.params.A, plus.params.A)
        assert np.array_equal(minus.params.B, plus.params.B)
        dm, dp = (bk.find_double_points(fm.deformed, 0.5, 48)
                  for fm in (minus, plus))
        assert len(dm) == len(dp) >= 1
        for a, b in zip(dm, dp):
            assert abs(a.z1 - b.z1) <= 1e-9 and abs(a.z2 - b.z2) <= 1e-9
            assert np.abs(a.image - b.image * [1, 1, 1, -1]).max() <= 1e-9
            assert a.transversality_det * b.transversality_det < 0


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
        p1 = bk.sample_generic(ex4, 0.05, 1).params
        p2 = bk.sample_generic(ex4, 0.05, 1).params
        assert np.array_equal(p1.A, p2.A) and np.array_equal(p1.B, p2.B)

    def test_scale_bound_and_x1(self, ex4):
        p = bk.sample_generic(ex4, 0.05, 2).params
        assert np.linalg.norm(p.A) <= 0.05 and np.linalg.norm(p.B) <= 0.05
        assert bk.check_X1(p, ex4)

    def test_zero_scale_rejected(self, ex4):
        with pytest.raises(SamplingExhausted):
            bk.sample_generic(ex4, 0.0, 1)

    def test_deformed_is_immersion(self, ex4):
        fm = bk.sample_generic(ex4, 0.02, 5)
        assert all(abs(b) > 0.9 for b in bk.branch_points(fm.deformed))

    def test_x1_failures_exhaust_the_draws(self, cusp, monkeypatch):
        # at t = 1e-6 the cusp's factor roots sit inside the absolute root
        # floor, so every draw fails X1 and no draw's member is built (only
        # the member at A = B = 0, read once for a second branch point)
        verdicts, built = [], []
        real_check, real_member = deformation.check_X1, deformation._member

        def check(p, w):
            verdicts.append(real_check(p, w))
            return verdicts[-1]

        def build(frame, p):
            built.append(p)
            return real_member(frame, p)

        monkeypatch.setattr(deformation, "_MAX_DRAWS", 5)
        monkeypatch.setattr(deformation, "check_X1", check)
        monkeypatch.setattr(deformation, "_member", build)
        with pytest.raises(SamplingExhausted,
                           match=r"^no generic parameters found in 5 draws "
                                 r"at scale t=1e-06$"):
            bk.sample_generic(cusp, 1e-6, 1)
        assert verdicts == [False] * 5
        assert [p.t for p in built] == [0.0]

    def test_branch_point_rejects_the_draw(self, cusp, monkeypatch):
        # on a complex curve a branch point fails X1 first, so the branch
        # test is made to find one in the first draw's member (built after
        # the member at A = B = 0): that member is dropped and the next
        # draw passing X1 is taken
        first = bk.sample_generic(cusp, 0.05, 1)
        built = []
        real_member, real_branch_points = (deformation._member,
                                           deformation.branch_points)

        def member(frame, p):
            built.append(real_member(frame, p))
            return built[-1]

        def branch_points(w):
            return [0.5] if len(built) == 2 else real_branch_points(w)

        monkeypatch.setattr(deformation, "_member", member)
        monkeypatch.setattr(deformation, "branch_points", branch_points)
        fm = bk.sample_generic(cusp, 0.05, 1)
        assert len(built) == 3 and fm is built[2]
        assert np.array_equal(built[1].params.A, first.params.A)
        assert not np.array_equal(fm.params.A, first.params.A)

    def test_frame_is_decided_once(self, monkeypatch):
        # x -> (conj z^2, z^3) needs a relabel: one per call, not one per
        # draw, and the member still carries the input's permutation
        w = bk.load([CPoly.zero(), CPoly([0, 2]), CPoly([0, 0, 3]),
                     CPoly.zero()])
        calls, real_relabel = [], deformation.relabel_orders

        def relabel(v):
            calls.append(v)
            return real_relabel(v)

        monkeypatch.setattr(deformation, "relabel_orders", relabel)
        with pytest.warns(UserWarning, match="reflects one coordinate plane"):
            fm = bk.sample_generic(w, 0.05, 1)
        assert fm.relabel == (1, 0, 2, 3)
        assert [v for v in calls if v is w] == [w]
        with pytest.warns(UserWarning, match="reflects one coordinate plane"):
            rebuilt = bk.build_family_member(w, fm.params)
        assert rebuilt.to_json_dict() == fm.to_json_dict()

    def test_starts_no_newton_batch(self, bases, monkeypatch):
        # a draw's double points are not searched (the lemma behind
        # acceptance criterion 05 makes almost every draw generic)
        def newton(*args):
            raise AssertionError("the sampler started a Newton batch")

        monkeypatch.setattr(_kernels, "newton_double_points", newton)
        for w in bases.values():
            for orientation in (+1, -1):
                bk.sample_generic(w, 0.05, 1, orientation=orientation)

    def test_first_admissible_draw_is_taken(self, monkeypatch):
        # T(2,9) at t = 1e-5, seed 3: the first draw passing X1 has no
        # branch point in the unit disk, and it is the member returned;
        # its double points still satisfy the identity with D = delta = 4
        w = bk.load([CPoly([0, 2]), CPoly.zero(), CPoly.monomial(8) * 9,
                     CPoly.zero()])
        draws, real_check = [], deformation.check_X1

        def check(p, v):
            draws.append((p, real_check(p, v)))
            return draws[-1][1]

        monkeypatch.setattr(deformation, "check_X1", check)
        fm = bk.sample_generic(w, 1e-5, 3)
        assert [ok for _, ok in draws].count(True) == 1 and draws[-1][1]
        assert fm.params is draws[-1][0]
        report = bk.verify_double_point_formula(fm.base, fm.deformed)
        assert (report.D, report.e, report.N) == (4, 9, 2)

    def test_second_branch_point_is_refused(self, monkeypatch):
        # cusps at 0 and 0.5: every member keeps the one at 0.5, so the
        # sampler refuses before its first draw, naming it
        w = bk.load([CPoly([0, -0.5, 1]), CPoly.zero(),
                     CPoly([0, 0, -1.5, 3]), CPoly.zero()])

        def check(p, v):
            raise AssertionError("a draw was made")

        monkeypatch.setattr(deformation, "check_X1", check)
        for orientation in (+1, -1):
            with pytest.raises(SecondBranchPoint,
                               match=r"^branch point at z = 0\.5\+0j besides"):
                bk.sample_generic(w, 0.05, 1, orientation=orientation)

    def test_branch_point_spread_by_roundoff_is_not_refused(self):
        # a constant term below the order cutoff spreads the branch point at
        # 0 of 4z^3 into three roots near |z| = 3e-5; it is still the one
        w = bk.load([CPoly([1e-13, 0, 0, 4]), CPoly.zero(),
                     CPoly.monomial(4) * 5, CPoly.zero()])
        assert min(abs(b) for b in bk.branch_points(w)) > 1e-5
        assert bk.sample_generic(w, 0.05, 1).base.orders == (3, math.inf, 4, math.inf)


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
