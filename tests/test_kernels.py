import itertools

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
        a, b, res, ok = _kernels.newton_double_points(z1, z2, w)
        assert ok[0] and res[0] <= 1e-12
        root = np.sqrt(3) * T
        assert sorted([a[0].real, b[0].real]) == pytest.approx([-root, root], abs=1e-9)

    def test_singular_jacobian_stops_at_seed(self, flat):
        # on the flat plane z -> (z, 0) the deflated system is the constant
        # G = (1, 0), whose Jacobian is zero: the seed is dropped, not solved
        z1 = np.array([0.1 + 0j])
        z2 = np.array([-0.2 + 0.1j])
        a, b, res, ok = _kernels.newton_double_points(z1, z2, flat)
        assert not ok[0]
        assert a[0] == z1[0] and b[0] == z2[0]
        assert res[0] == pytest.approx(abs(z1[0] - z2[0]), rel=1e-12)


class TestNewtonReusesResidual:
    """G is evaluated once at the seeds and once per trial step, never
    again at the top of an iteration; the residual the kernel returns is
    the |G| of its last accepted step, not a fresh evaluation; and each
    seed's run does not depend on the rest of its batch."""

    @staticmethod
    def _logged(monkeypatch, *args):
        calls = []
        deflated, jacobian = _kernels._deflated, _kernels._deflated_jacobian

        def logged_G(w, z1, z2):
            calls.append(("G", z1.size))
            return deflated(w, z1, z2)

        def logged_J(w, z1, z2, G):
            calls.append(("J", z1.size))
            # the G an iteration starts from is the one at its pairs
            assert np.array_equal(G, deflated(w, z1, z2))
            return jacobian(w, z1, z2, G)

        with monkeypatch.context() as m:
            m.setattr(_kernels, "_deflated", logged_G)
            m.setattr(_kernels, "_deflated_jacobian", logged_J)
            return _kernels.newton_double_points(*args), calls

    def _check(self, monkeypatch, z1, z2, w):
        got, calls = self._logged(monkeypatch, z1, z2, w)
        # the same seeds again, batched with their own reversal: each
        # seed's run is bit for bit the one it has alone
        both = _kernels.newton_double_points(np.concatenate([z1, z1[::-1]]),
                                             np.concatenate([z2, z2[::-1]]),
                                             w)
        n = z1.size
        for g, b in zip(got, both):
            assert np.array_equal(g, b[:n])
            assert np.array_equal(g, b[n:][::-1])
        # one G pass over the seeds, then every iteration's Jacobian pass
        # is followed by its trial steps, one G pass each and at most 10,
        # on at least one and no more pairs than the iteration has
        assert calls[0] == ("G", n)
        jac = [i for i, c in enumerate(calls) if c[0] == "J"]
        assert jac and jac[0] == 1
        for i, j in zip(jac, jac[1:] + [len(calls)]):
            trials = calls[i + 1:j]
            assert len(trials) <= 10
            assert all(c == "G" and 1 <= size <= calls[i][1] for c, size in trials)
        # the returned residual is the trial's |d| |G|, equal to a fresh
        # evaluation at the final pair
        a, b, res, ok = got
        G = _kernels._deflated(w, a, b)
        assert np.array_equal(res, np.abs(a - b) * np.linalg.norm(G, axis=0))
        return got, calls

    @pytest.mark.parametrize("member", ["cusp_member", "torus_member"])
    def test_search_seeds_bit_identical(self, member, search_seeds,
                                        monkeypatch):
        w, z1, z2 = search_seeds[member]
        ok = self._check(monkeypatch, z1, z2, w)[0][3]
        assert ok.sum() > 1000

    def test_branch_point_seed_bit_identical(self, cusp, monkeypatch):
        # the kernel does not know branch points: from this seed it walks
        # into the cusp's one at 0, where |F(z1) - F(z2)| vanishes, which is
        # why find_double_points refuses a region that holds one
        z1 = np.array([0j])
        z2 = np.array([0.1 + 0j])
        (a, b, res, ok), calls = self._check(monkeypatch, z1, z2, cusp)
        assert ok[0] and res[0] <= 1e-12
        assert a[0] == -b[0] and abs(a[0]) < 1e-4
        # every full step is accepted, so the passes alternate: one G
        # pass per trial step and none at the top of an iteration
        assert [c for c, _ in calls] == ["G", "J"] * (len(calls) // 2) + ["G"]


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
        G = _kernels._deflated(member, z1, z2)
        diff = bk.evaluate_F(member, z1) - bk.evaluate_F(member, z2)
        got = (z1 - z2) * G
        assert np.abs(got - (diff[:, 0::2] + 1j * diff[:, 1::2]).T).max() < 1e-15

    def test_jacobian_matches_central_differences(self, member):
        z1, z2 = _random_pairs(2)
        J = _kernels._deflated_jacobian(member, z1, z2,
                                        _kernels._deflated(member, z1, z2))
        scale = np.abs(J).max(axis=(0, 1))
        h = 1e-6
        for col, (e1, e2) in enumerate([(1, 0), (1j, 0), (0, 1), (0, 1j)]):
            up = _kernels._deflated(member, z1 + h * e1, z2 + h * e2)
            down = _kernels._deflated(member, z1 - h * e1, z2 - h * e2)
            fd = (up - down) / (2 * h)
            fd = np.concatenate([fd.real, fd.imag])
            assert (np.abs(J[:, col] - fd).max(axis=0) <= 1e-7 * scale).all()

    def test_symmetric_under_swap(self, member):
        z1, z2 = _random_pairs(3)
        G = _kernels._deflated(member, z1, z2)
        G_swapped = _kernels._deflated(member, z2, z1)
        assert np.abs(G - G_swapped).max() <= 1e-14 * np.abs(G).max()


def _solve(J, r):
    """_kernels._solve on systems stacked along the first axis."""
    x, det = _kernels._solve(np.moveaxis(J, 0, -1).copy(), r.T.copy())
    return x.T, det


def _scalar_gauss_jordan(A):
    """One system by the elimination _solve runs, in scalar floats: the
    same operations in the same order.  Returns x, the determinant and
    the pivot rows taken."""
    A = [list(map(float, row)) for row in A]
    det, rows = 1.0, []
    for c in range(4):
        col = [abs(A[i][c]) for i in range(c, 4)]
        p = c + col.index(max(col))
        rows.append(p)
        A[c], A[p] = A[p], A[c]
        det *= (1.0 if p == c else -1.0) * A[c][c]
        if A[c][c] == 0.0:
            A[c][c] = 1.0
        m = [A[i][c] / A[c][c] if i != c else 0.0 for i in range(4)]
        A = [[A[i][j] - m[i] * A[c][j] for j in range(5)] for i in range(4)]
    return [A[i][4] / A[i][i] for i in range(4)], det, rows


class TestSolve:
    def test_matches_numpy_solve(self):
        rng = np.random.default_rng(4)
        J = rng.standard_normal((200, 4, 4))
        r = rng.standard_normal((200, 4))
        x, det = _solve(J, r)
        assert (np.abs(det) > 1e-300).all()
        assert np.allclose(x, np.linalg.solve(J, r[..., None])[..., 0],
                           rtol=1e-9, atol=1e-12)

    def test_singular_systems_are_flagged(self):
        rng = np.random.default_rng(5)
        J = rng.standard_normal((3, 4, 4))
        J[0, 2] = 0.0                 # a zero row
        J[1, :, 3] = J[1, :, 0]       # two equal columns
        x, det = _solve(J, np.ones((3, 4)))
        assert (np.abs(det) > 1e-300).tolist() == [False, False, True]
        assert np.isfinite(x).all()

    def test_every_pivot_row_bit_for_bit(self):
        # all 24 row orders of a dominant diagonal: at each column every
        # row still in play is taken as the pivot by some system, and each
        # system comes out bit for bit as the same elimination run on it
        # alone, in scalar floats
        rng = np.random.default_rng(6)
        perms = np.array(list(itertools.permutations(range(4))))
        J = (8.0 * np.eye(4) + rng.standard_normal((len(perms), 4, 4)))
        J = J[np.arange(len(perms))[:, None], perms]
        r = rng.standard_normal((len(perms), 4))
        x, det = _solve(J, r)
        taken = set()
        for k in range(len(perms)):
            xk, dk, rows = _scalar_gauss_jordan(np.column_stack([J[k], r[k]]))
            assert x[k].tolist() == xk and det[k] == dk
            taken |= set(enumerate(rows))
        assert taken == {(c, p) for c in range(4) for p in range(c, 4)}

    def test_zero_pivot(self):
        # the second column is half the first, so after the first column
        # is eliminated the whole second column is exactly zero
        rng = np.random.default_rng(7)
        J = rng.standard_normal((2, 4, 4))
        J[0, :, 1] = 0.5 * J[0, :, 0]
        x, det = _solve(J, rng.standard_normal((2, 4)))
        assert det[0] == 0.0 and det[1] != 0.0
        assert np.isfinite(x).all()

    def test_determinant_sign(self):
        rng = np.random.default_rng(8)
        J = rng.standard_normal((500, 4, 4))
        _, det = _solve(J, np.zeros((500, 4)))
        ref = np.linalg.det(J)
        assert (np.sign(det) == np.sign(ref)).all()
        assert (np.abs(det - ref) <= 1e-12 * np.abs(ref)).all()
