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
