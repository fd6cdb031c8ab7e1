import numpy as np
import pytest

import branchknot as bk
from branchknot import _kernels

T = 0.05


def _circle(center, normal_axis, radius, n=400):
    """Planar circle in R^3 lying in the plane orthogonal to normal_axis."""
    th = 2 * np.pi * np.arange(n) / n
    axes = [i for i in range(3) if i != normal_axis]
    pts = np.tile(np.asarray(center, float), (n, 1))
    pts[:, axes[0]] += radius * np.cos(th)
    pts[:, axes[1]] += radius * np.sin(th)
    return pts


class TestLinkingSum:
    def test_hopf_style_pair(self):
        # unit circle in the xy-plane and a circle through its center in
        # the xz-plane: absolute linking number 1
        c1 = _circle([0, 0, 0], 2, 1.0)
        c2 = _circle([1, 0, 0], 1, 1.0)
        lk = _kernels.linking_sum(c1, c2)
        assert abs(abs(lk) - 1.0) < 1e-10

    def test_unlinked(self):
        c1 = _circle([0, 0, 0], 2, 1.0)
        c2 = _circle([5, 0, 0], 2, 1.0)
        assert abs(_kernels.linking_sum(c1, c2)) < 1e-10

    def test_separated_coaxial(self):
        c1 = _circle([0, 0, 0], 2, 1.0)
        c2 = _circle([0, 0, 3], 2, 1.0)
        assert abs(_kernels.linking_sum(c1, c2)) < 1e-10


def _row_loop_linking_sum(P, Q):
    """The original row-by-row linking sum, kept as the reference."""
    n = P.shape[0]
    Pn = np.vstack([P, P[:1]])
    Qn = np.vstack([Q, Q[:1]])
    total = 0.0
    for i in range(n):
        a = Pn[i] - Qn[:-1]
        b = Pn[i] - Qn[1:]
        c = Pn[i + 1] - Qn[1:]
        d = Pn[i + 1] - Qn[:-1]
        p = np.einsum("ij,ij->i", a, np.cross(b, c))
        an, bn, cn, dn = (np.linalg.norm(v, axis=1) for v in (a, b, c, d))
        ab = np.einsum("ij,ij->i", a, b)
        bc = np.einsum("ij,ij->i", b, c)
        ca = np.einsum("ij,ij->i", c, a)
        ad = np.einsum("ij,ij->i", a, d)
        dc = np.einsum("ij,ij->i", d, c)
        d1 = an * bn * cn + ab * cn + bc * an + ca * bn
        d2 = an * dn * cn + ad * cn + dc * an + ca * dn
        total += float(np.sum(np.arctan2(p, d1) + np.arctan2(p, d2)))
    return total / (2.0 * np.pi)


class TestLinkingSumBlocks:
    """The blocked difference-grid kernel against the row loop."""

    B = _kernels.LINK_BLOCK

    @pytest.mark.parametrize("n, m", [(3 * B + 5, 2 * B - 3),   # not a multiple
                                      (B // 2, 3 * B + 1),      # under one block
                                      (2 * B, B + 7),           # whole blocks
                                      (B + 1, 4)])
    def test_matches_row_loop_on_random_polylines(self, n, m):
        rng = np.random.default_rng(1000 * n + m)
        P = np.cumsum(rng.standard_normal((n, 3)), axis=0)
        Q = np.cumsum(rng.standard_normal((m, 3)), axis=0)
        assert _kernels.linking_sum(P, Q) == pytest.approx(
            _row_loop_linking_sum(P, Q), abs=1e-12)

    def test_matches_row_loop_on_linked_pair(self):
        # a linked pair, so the sum is not just cancellation around zero
        c1 = _circle([0, 0, 0], 2, 1.0, n=3 * self.B + 11)
        c2 = _circle([1, 0, 0], 1, 1.0, n=150)
        ref = _row_loop_linking_sum(c1, c2)
        assert abs(abs(ref) - 1.0) < 1e-6
        assert _kernels.linking_sum(c1, c2) == pytest.approx(ref, abs=1e-12)


class TestNewtonKernel:
    def test_converges_to_known_pair(self):
        # f = (z^2, 0, z^3 - 3 t^2 z, 0): the double point is z = +-sqrt(3) t
        w = bk.load([bk.CPoly([0, 2]), bk.CPoly.zero(),
                     bk.CPoly([-3 * T * T, 0, 3]), bk.CPoly.zero()])
        z1 = np.array([0.1 + 0.02j])
        z2 = np.array([-0.07 - 0.01j])
        a, b, res, ok = _kernels.newton_double_points(z1, z2, w, 1e-12, 50)
        assert ok[0] and res[0] <= 1e-12
        root = np.sqrt(3) * T
        assert sorted([a[0].real, b[0].real]) == pytest.approx([-root, root], abs=1e-9)

    def test_singular_jacobian_stops_at_seed(self, flat):
        # on the flat plane z -> (z, 0) the deflated system is the constant
        # G = (1, 0), whose Jacobian is zero: the seed is dropped, not solved
        z1 = np.array([0.1 + 0j])
        z2 = np.array([-0.2 + 0.1j])
        a, b, res, ok = _kernels.newton_double_points(z1, z2, flat, 1e-12, 50)
        assert not ok[0]
        assert a[0] == z1[0] and b[0] == z2[0]
        assert res[0] == pytest.approx(abs(z1[0] - z2[0]), rel=1e-12)


class TestNewtonReusesResidual:
    """The residual the kernel returns is the |G| of its last accepted
    step, not a fresh evaluation, and each seed's run does not depend on
    the rest of its batch."""

    @staticmethod
    def _counted(monkeypatch, *args):
        calls = {"G": 0, "DG": 0, "J": 0}
        deflated, jacobian = _kernels._deflated, _kernels.jacobian

        def counted_deflated(w, z1, z2, with_jacobian):
            calls["DG" if with_jacobian else "G"] += 1
            return deflated(w, z1, z2, with_jacobian)

        def counted_J(*a):
            calls["J"] += 1
            return jacobian(*a)

        with monkeypatch.context() as m:
            m.setattr(_kernels, "_deflated", counted_deflated)
            m.setattr(_kernels, "jacobian", counted_J)
            return _kernels.newton_double_points(*args), calls

    def _check(self, monkeypatch, z1, z2, w):
        got, calls = self._counted(monkeypatch, z1, z2, w, 1e-12, 50)
        # the same seeds again, batched with their own reversal: each
        # seed's run is bit for bit the one it has alone
        both = _kernels.newton_double_points(np.concatenate([z1, z1[::-1]]),
                                             np.concatenate([z2, z2[::-1]]),
                                             w, 1e-12, 50)
        n = z1.size
        for g, b in zip(got, both):
            assert np.array_equal(g, b[:n])
            assert np.array_equal(g, b[n:][::-1])
        # each iteration takes one Jacobian pass (two jacobian calls) and
        # at least one trial step; the returned residual is the trial's
        # |d| |G|, equal to a fresh evaluation at the final pair
        a, b, res, ok = got
        assert calls["DG"] > 0 and calls["J"] == 2 * calls["DG"]
        assert calls["G"] >= calls["DG"]
        G, _ = _kernels._deflated(w, a, b, False)
        assert np.array_equal(res, np.abs(a - b) * np.linalg.norm(G, axis=1))
        return got

    @pytest.mark.parametrize("member", ["cusp_member", "torus_member"])
    def test_search_seeds_bit_identical(self, member, search_seeds,
                                        monkeypatch):
        w, z1, z2 = search_seeds[member]
        ok = self._check(monkeypatch, z1, z2, w)[3]
        assert ok.sum() > 1000

    def test_branch_point_seed_bit_identical(self, cusp, monkeypatch):
        # the kernel does not know branch points: from this seed it walks
        # into the cusp's one at 0, where |F(z1) - F(z2)| vanishes, which is
        # why find_double_points refuses a region that holds one
        z1 = np.array([0j])
        z2 = np.array([0.1 + 0j])
        a, b, res, ok = self._check(monkeypatch, z1, z2, cusp)
        assert ok[0] and res[0] <= 1e-12
        assert a[0] == -b[0] and abs(a[0]) < 1e-4


def _random_pairs(seed, n=40, radius=0.5, min_sep=0.05):
    """Pairs of points of the disk at least min_sep apart."""
    rng = np.random.default_rng(seed)
    z = rng.uniform(-radius, radius, (4 * n, 2)) @ [1, 1j]
    z1, z2 = z[: 2 * n], z[2 * n:]
    keep = ((np.abs(z1) <= radius) & (np.abs(z2) <= radius)
            & (np.abs(z1 - z2) >= min_sep))
    return z1[keep][:n], z2[keep][:n]


class TestDeflatedSystem:
    """G and its analytic Jacobian, on the cusp member and on a sampled
    four-function member (all four components nonzero)."""

    @pytest.fixture(params=["cusp", "four_function"])
    def member(self, request, cusp_member, sampled_members):
        if request.param == "cusp":
            return cusp_member.deformed
        return sampled_members["four_function", 1, +1].deformed

    def test_times_d_is_the_map_difference(self, member):
        # (F1 + i F2)(z1) - (F1 + i F2)(z2) = d G1, and the same for G2
        z1, z2 = _random_pairs(1)
        G, _ = _kernels._deflated(member, z1, z2, False)
        diff = bk.evaluate_F(member, z1) - bk.evaluate_F(member, z2)
        got = (z1 - z2)[:, None] * G
        assert np.abs(got - (diff[:, 0::2] + 1j * diff[:, 1::2])).max() < 1e-15

    def test_jacobian_matches_central_differences(self, member):
        z1, z2 = _random_pairs(2)
        _, J = _kernels._deflated(member, z1, z2, True)
        scale = np.abs(J).max(axis=(1, 2))
        h = 1e-6
        for col, (e1, e2) in enumerate([(1, 0), (1j, 0), (0, 1), (0, 1j)]):
            up, _ = _kernels._deflated(member, z1 + h * e1, z2 + h * e2, False)
            down, _ = _kernels._deflated(member, z1 - h * e1, z2 - h * e2,
                                         False)
            fd = (up - down) / (2 * h)
            fd = np.hstack([fd.real, fd.imag])
            assert (np.abs(J[:, :, col] - fd).max(axis=1) <= 1e-7 * scale).all()

    def test_symmetric_under_swap(self, member):
        z1, z2 = _random_pairs(3)
        G, _ = _kernels._deflated(member, z1, z2, False)
        G_swapped, _ = _kernels._deflated(member, z2, z1, False)
        assert np.abs(G - G_swapped).max() <= 1e-14 * np.abs(G).max()


class TestSolve:
    def test_matches_numpy_solve(self):
        rng = np.random.default_rng(4)
        J = rng.standard_normal((200, 4, 4))
        r = rng.standard_normal((200, 4))
        x, good = _kernels._solve(J, r)
        assert good.all()
        assert np.allclose(x, np.linalg.solve(J, r[..., None])[..., 0],
                           rtol=1e-9, atol=1e-12)

    def test_singular_systems_are_flagged(self):
        rng = np.random.default_rng(5)
        J = rng.standard_normal((3, 4, 4))
        J[0, 2] = 0.0                 # a zero row
        J[1, :, 3] = J[1, :, 0]       # two equal columns
        x, good = _kernels._solve(J, np.ones((3, 4)))
        assert good.tolist() == [False, False, True]
        assert np.isfinite(x).all()
