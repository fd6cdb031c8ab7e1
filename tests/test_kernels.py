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

    def test_singular_jacobian_stops_at_seed(self, cusp):
        # z1 = 0 is the branch point of the unperturbed cusp, where the
        # 4x4 Jacobian is singular: the seed is dropped, not solved
        z1 = np.array([0j])
        z2 = np.array([0.1 + 0j])
        a, b, res, ok = _kernels.newton_double_points(z1, z2, cusp, 1e-12, 50)
        assert not ok[0]
        assert a[0] == z1[0] and b[0] == z2[0]
        assert res[0] == pytest.approx(np.hypot(0.1 ** 2, 0.1 ** 3), rel=1e-12)


def _newton_reference(z1, z2, w, tol, max_iter):
    """The kernel that evaluated F(z1) - F(z2) again at the start of every
    iteration, kept as the reference.  It looks the map up on _kernels at
    each call, so a counter patched in there counts its calls too."""
    evaluate_F, jacobian = _kernels.evaluate_F, _kernels.jacobian
    z1 = np.array(z1, np.complex128)
    z2 = np.array(z2, np.complex128)
    n = z1.size
    ok = np.zeros(n, bool)
    alive = np.ones(n, bool)
    resid = np.linalg.norm(evaluate_F(w, z1) - evaluate_F(w, z2), axis=1)
    for _ in range(max_iter):
        idx = np.nonzero(alive & ~ok)[0]
        if idx.size == 0:
            break
        a, b = z1[idx], z2[idx]
        r = evaluate_F(w, a) - evaluate_F(w, b)
        fx1, fy1 = jacobian(w, a)
        fx2, fy2 = jacobian(w, b)
        J = np.stack([fx1, fy1, -fx2, -fy2], axis=-1)
        good = np.abs(np.linalg.det(J)) > 1e-300
        alive[idx[~good]] = False
        idx = idx[good]
        if idx.size == 0:
            continue
        delta = np.linalg.solve(J[good], -r[good][..., None])[..., 0]
        base1, base2 = z1[idx], z2[idx]
        cur = resid[idx]
        step = np.ones(idx.size)
        for _half in range(9):
            n1 = base1 + step * (delta[:, 0] + 1j * delta[:, 1])
            n2 = base2 + step * (delta[:, 2] + 1j * delta[:, 3])
            new = np.linalg.norm(evaluate_F(w, n1) - evaluate_F(w, n2), axis=1)
            worse = new > cur
            if not worse.any():
                break
            step[worse] *= 0.5
        z1[idx], z2[idx], resid[idx] = n1, n2, new
        ok[idx] = new <= tol
    return z1, z2, resid, ok


class TestNewtonReusesResidual:
    """The kernel against the one that evaluated F twice more per step."""

    @staticmethod
    def _counted(monkeypatch, kernel, *args):
        calls = {"F": 0, "J": 0}
        evaluate_F, jacobian = _kernels.evaluate_F, _kernels.jacobian

        def counted_F(*a):
            calls["F"] += 1
            return evaluate_F(*a)

        def counted_J(*a):
            calls["J"] += 1
            return jacobian(*a)

        with monkeypatch.context() as m:
            m.setattr(_kernels, "evaluate_F", counted_F)
            m.setattr(_kernels, "jacobian", counted_J)
            return kernel(*args), calls

    def _check(self, monkeypatch, z1, z2, w):
        got, new = self._counted(monkeypatch, _kernels.newton_double_points,
                                 z1, z2, w, 1e-12, 50)
        ref, old = self._counted(monkeypatch, _newton_reference,
                                 z1, z2, w, 1e-12, 50)
        for g, r in zip(got, ref):
            assert np.array_equal(g, r)
        # each iteration that runs takes two jacobian calls in both kernels
        # and two evaluate_F calls fewer in the new one
        assert new["J"] == old["J"] > 0
        assert old["F"] - new["F"] == new["J"]
        return got

    @pytest.mark.parametrize("member", ["cusp_member", "torus_member"])
    def test_search_seeds_bit_identical(self, member, search_seeds,
                                        monkeypatch):
        w, z1, z2 = search_seeds[member]
        ok = self._check(monkeypatch, z1, z2, w)[3]
        assert ok.sum() > 1000

    def test_branch_point_seed_bit_identical(self, cusp, monkeypatch):
        z1 = np.array([0j])
        z2 = np.array([0.1 + 0j])
        a, b, res, ok = self._check(monkeypatch, z1, z2, cusp)
        assert not ok[0] and a[0] == z1[0] and b[0] == z2[0]
