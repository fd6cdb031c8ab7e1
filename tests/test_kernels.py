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
