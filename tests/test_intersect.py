import logging
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import branchknot as bk
from branchknot import _kernels, intersect
from branchknot.cpoly import CPoly
from branchknot.errors import BranchPointInRegion
from branchknot.intersect import DoublePoint, _merge_pairs

CUSP_T = 0.05


def pair_dist(dp, a, b):
    return min(max(abs(dp.z1 - a), abs(dp.z2 - b)),
               max(abs(dp.z1 - b), abs(dp.z2 - a)))


class TestFindDoublePoints:
    def test_perturbed_cusp(self, cusp_member):
        dps = bk.find_double_points(cusp_member.deformed, radius=0.5, grid_n=48)
        assert len(dps) == 1
        dp = dps[0]
        root = math.sqrt(3) * CUSP_T
        got = sorted([dp.z1, dp.z2], key=lambda c: c.real)
        assert abs(got[0] - (-root)) < 1e-8
        assert abs(got[1] - root) < 1e-8
        assert np.linalg.norm(dp.image - [3 * CUSP_T ** 2, 0, 0, 0]) < 1e-8
        assert dp.residual <= 1e-12

    def test_perturbed_torus(self, torus_member):
        dps = bk.find_double_points(torus_member.deformed, radius=0.5, grid_n=48)
        assert len(dps) == 2

        def pair_dist(dp, a, b):
            return min(max(abs(dp.z1 - a), abs(dp.z2 - b)),
                       max(abs(dp.z1 - b), abs(dp.z2 - a)))

        # quartic roots of -c: one real pair, one imaginary pair
        assert min(pair_dist(dp, -0.1, 0.1) for dp in dps) < 1e-6
        assert min(pair_dist(dp, -0.1j, 0.1j) for dp in dps) < 1e-6

    def test_flat_plane_empty(self, flat):
        assert bk.find_double_points(flat, radius=0.5, grid_n=48) == []

    def test_branch_point_in_region_rejected(self, cusp):
        with pytest.raises(BranchPointInRegion):
            bk.find_double_points(cusp, radius=0.5, grid_n=32)

    def test_grid_refinement_stable(self, cusp_member, torus_member):
        for fm, expect in ((cusp_member, 1), (torus_member, 2)):
            for n in (48, 96):
                assert len(bk.find_double_points(fm.deformed, 0.5, n)) == expect

    def test_odd_symmetry_of_pairs(self, cusp_member, torus_member):
        for fm in (cusp_member, torus_member):
            for dp in bk.find_double_points(fm.deformed, 0.5, 48):
                assert abs(dp.z1 + dp.z2) < 1e-8

    def test_radius_cap(self, flat):
        with pytest.raises(ValueError):
            bk.find_double_points(flat, radius=0.95, grid_n=16)


class TestSeedThinning:
    EXPECT = {
        "cusp_member": [(-math.sqrt(3) * CUSP_T, math.sqrt(3) * CUSP_T)],
        "torus_member": [(-0.1, 0.1), (-0.1j, 0.1j)],
    }

    @pytest.mark.parametrize("member", sorted(EXPECT))
    def test_newton_seed_count(self, member, request, monkeypatch):
        # the seeds are all C(n, 2) pairs of the n points of the seed grid,
        # 12 across at grid 48
        fm = request.getfixturevalue(member)
        seeds = []
        newton = _kernels.newton_double_points

        def counting(z1, *args):
            seeds.append(len(z1))
            return newton(z1, *args)

        monkeypatch.setattr(_kernels, "newton_double_points", counting)
        dps = bk.find_double_points(fm.deformed, 0.5, 48)
        n = intersect._disk_grid(0.5, 12).size
        assert n == 88
        assert seeds == [math.comb(n, 2)]
        expect = self.EXPECT[member]
        assert len(dps) == len(expect)
        for a, b in expect:
            assert min(pair_dist(dp, a, b) for dp in dps) < 1e-8

    # counts the finder reported when it still solved F(z1) - F(z2) = 0
    # from proximity-tree seeds, before they were thinned, on sampled
    # (non-holomorphic) members; (fixture, orientation, seed) -> count
    SAMPLED = {
        ("four_function", +1, 1): 1, ("four_function", +1, 2): 0,
        ("four_function", -1, 1): 1, ("four_function", -1, 2): 0,
        ("mixed_strong", +1, 1): 4, ("mixed_strong", +1, 2): 6,
        ("mixed_strong", -1, 1): 2, ("mixed_strong", -1, 2): 3,
    }

    @pytest.mark.parametrize("stem,orientation,seed", sorted(SAMPLED))
    def test_sampled_members_stable(self, stem, orientation, seed,
                                    sampled_members):
        deformed = sampled_members[stem, seed, orientation].deformed
        for n in (32, 48):
            dps = bk.find_double_points(deformed, 0.5, n)
            assert len(dps) == self.SAMPLED[stem, orientation, seed]


def _merge_loop(z1, z2, resid, tol):
    """The original per-pair merge, kept as the reference."""
    found = []
    for a, b, r in zip(z1, z2, resid):
        a, b = complex(a), complex(b)
        if (b.real, b.imag) < (a.real, a.imag):
            a, b = b, a
        found.append((a, b, float(r)))
    found.sort(key=lambda t: (t[0].real, t[0].imag, t[1].real, t[1].imag))
    merged = []
    for a, b, r in found:
        if not any((abs(a - ma) < tol and abs(b - mb) < tol)
                   or (abs(a - mb) < tol and abs(b - ma) < tol)
                   for ma, mb, _ in merged):
            merged.append((a, b, r))
    return merged


class TestMergePairs:
    def test_matches_loop_reference(self):
        rng = np.random.default_rng(0)
        # equal real parts in the second pair: jitter flips its canonical
        # order, so only the swapped matching merges it
        centres = [(0.2 + 0.1j, -0.2 - 0.1j), (0.3 + 0.1j, 0.3 - 0.1j),
                   (-0.1 + 0.4j, 0.1 + 0.0j)]
        z1, z2 = [], []
        for a, b in centres:
            for _ in range(50):
                ja, jb = rng.normal(scale=1e-8, size=(2, 2)) @ [1, 1j]
                if rng.uniform() < 0.5:
                    a, b = b, a
                z1.append(a + ja)
                z2.append(b + jb)
        z1, z2 = np.array(z1), np.array(z2)
        resid = rng.uniform(0, 1e-12, z1.size)
        got = _merge_pairs(z1, z2, resid)
        assert got == _merge_loop(z1, z2, resid, 1e-6)
        assert len(got) == len(centres)

    def test_empty(self):
        empty = np.zeros(0, np.complex128)
        assert _merge_pairs(empty, empty, np.zeros(0)) == []


_coord = st.floats(-0.5, 0.5, allow_nan=False)
_jitter = st.floats(-1e-8, 1e-8, allow_nan=False)


@st.composite
def _pair_clusters(draw):
    """Converged-looking pairs: jittered copies of a few centre pairs,
    each copy in either order."""
    centres = draw(st.lists(st.tuples(_coord, _coord, _coord, _coord),
                            min_size=1, max_size=4))
    z1, z2 = [], []
    for ar, ai, br, bi in centres:
        for _ in range(draw(st.integers(1, 5))):
            a = complex(ar + draw(_jitter), ai + draw(_jitter))
            b = complex(br + draw(_jitter), bi + draw(_jitter))
            if draw(st.booleans()):
                a, b = b, a
            z1.append(a)
            z2.append(b)
    resid = draw(st.lists(st.floats(0, 1e-12), min_size=len(z1),
                          max_size=len(z1)))
    return np.array(z1), np.array(z2), np.array(resid)


@settings(max_examples=60, deadline=None)
@given(_pair_clusters())
def test_merge_pairs_invariant_under_swap(clusters):
    z1, z2, resid = clusters
    assert _merge_pairs(z2, z1, resid) == _merge_pairs(z1, z2, resid)


def _merged_from_seeds(w, z1, z2):
    """Newton and the merge, as find_double_points runs them at radius 0.5."""
    a, b, resid, ok = _kernels.newton_double_points(z1, z2, w)
    keep = (ok & (np.abs(a) <= 0.5) & (np.abs(b) <= 0.5)
            & (np.abs(a - b) >= intersect._PAIR_SEP_TOL))
    return _merge_pairs(a[keep], b[keep], resid[keep])


def _seed_pairs(radius, grid_n):
    """The seeds of a search: every pair of points of its seed grid."""
    pts = intersect._disk_grid(radius, grid_n // 4)
    i, j = np.triu_indices(pts.size, 1)
    return pts[i], pts[j]


@settings(max_examples=20, deadline=None)
@given(member=st.sampled_from(["cusp_member", "torus_member"]),
       pick=st.none() | st.lists(st.integers(0, 10 ** 6), min_size=1,
                                 max_size=64))
@example(member="cusp_member", pick=None)
@example(member="torus_member", pick=None)
def test_newton_double_points_invariant_under_swap(request, member, pick):
    # pick=None seeds Newton with every pair of a grid-48 search; G is
    # symmetric under the swap (omega is unchanged by it), so the swapped
    # seeds must find the same double points
    w = request.getfixturevalue(member).deformed
    z1, z2 = _seed_pairs(0.5, 48)
    if pick is not None:
        sel = np.array(pick) % z1.size
        z1, z2 = z1[sel], z2[sel]
    fwd = _merged_from_seeds(w, z1, z2)
    rev = _merged_from_seeds(w, z2, z1)
    assert len(fwd) == len(rev)
    if pick is None:
        assert len(fwd) == {"cusp_member": 1, "torus_member": 2}[member]
    for a, b, _ in fwd:
        # a residual below _NEWTON_TOL places a preimage pair only to within
        # about _NEWTON_TOL / sigma_min of the 4x4 Jacobian (2e-9 on the
        # torus member, whose Jacobian is nearly singular), so the swapped
        # run must land within twice that; canonical order can flip for a
        # pair of nearly equal real parts (the torus member's +-0.1i), so
        # the double points match as unordered pairs
        fx1, fy1 = bk.jacobian(w, a)
        fx2, fy2 = bk.jacobian(w, b)
        sigma = np.linalg.svd(np.stack([fx1, fy1, -fx2, -fy2], axis=-1),
                              compute_uv=False).min()
        dp = DoublePoint(a, b, np.zeros(4), 0.0, 0.0, 0.0)
        assert min(pair_dist(dp, c, d) for c, d, _ in rev) \
            <= 2.0 * _kernels._NEWTON_TOL / sigma


def test_seeds_near_the_diagonal_do_not_converge_onto_it(cusp_member):
    # each point of a grid-48 search's seed grid, paired with a point 1e-3
    # away in one of eight directions: near the diagonal G is about
    # dF(e)/e, not zero, so Newton on G moves no pair onto the diagonal,
    # converged or not
    pts = intersect._disk_grid(0.5, 12)
    z1 = np.repeat(pts, 8)
    z2 = z1 + 1e-3 * np.exp(2j * np.pi * np.tile(np.arange(8), pts.size) / 8)
    a, b, _, _ = _kernels.newton_double_points(z1, z2, cusp_member.deformed)
    assert (np.abs(a - b) >= intersect._PAIR_SEP_TOL).all()


def test_search_funnel_logged(cusp_member, caplog):
    with caplog.at_level(logging.DEBUG, logger="branchknot"):
        dps = bk.find_double_points(cusp_member.deformed, 0.5, 48)
    (newton,) = [r for r in caplog.records if r.name == _kernels.__name__]
    (search,) = [r for r in caplog.records if r.name == intersect.__name__]
    for stage in ("seeds", "stopped off the disk", "stalled", "singular",
                  "converged"):
        assert stage in newton.getMessage()
    for stage in ("seed-grid points", "seeds", "converged", "double points"):
        assert stage in search.getMessage()
    n_seeds, n_off, n_stalled, n_singular, n_conv = newton.args
    n_points, n_search_seeds, n_search_conv, n_dps = search.args
    # 88 points, all C(88, 2) pairs as seeds, and every seed accounted for
    assert n_points == 88
    assert n_seeds == n_search_seeds == math.comb(88, 2)
    assert n_off + n_stalled + n_singular + n_conv == n_seeds
    assert n_off > 0 and n_stalled == n_singular == 0
    assert n_conv == n_search_conv > n_dps == len(dps) == 1


def _complex_curve(p, q):
    """The complex curve z -> (z^p, z^q), given by its derivatives."""
    return bk.load([CPoly([0] * (p - 1) + [p]), CPoly.zero(),
                    CPoly([0] * (q - 1) + [q]), CPoly.zero()])


def test_search_far_from_the_seeds_does_not_overflow():
    # Newton steps from seeds on this member can reach far outside the
    # disk, where the map overflows; Milnor's delta of T(5, 9) is 16
    w = _complex_curve(5, 9)
    member = bk.sample_generic(w, 1e-6, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        dps = bk.find_double_points(member.deformed, 0.5, 48)
    assert len(dps) == 16


def test_singular_seeds_stop_as_singular(caplog):
    # z -> (z + 5 z^2, 10 z^2) at radius 0.25: some seeds' first step is not
    # finite although their determinant passes 1e-300 (6e-62); they stop as
    # singular, with no numpy warning
    w = bk.load([CPoly([1, 10]), CPoly.zero(), CPoly([0, 20]), CPoly.zero()])
    z1, z2 = _seed_pairs(0.25, 48)
    G = _kernels._deflated(w, z1, z2)
    with np.errstate(all="ignore"):
        x, det = _kernels._solve(_kernels._deflated_jacobian(w, z1, z2, G),
                                 -np.concatenate([G.real, G.imag]))
    tiny, finite = np.abs(det) <= 1e-300, np.isfinite(x).all(axis=0)
    assert (~tiny & ~finite).any()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with caplog.at_level(logging.DEBUG, logger="branchknot"):
            assert bk.find_double_points(w, 0.25, 48) == []
    (newton,) = [r for r in caplog.records if r.name == _kernels.__name__]
    n_seeds, n_off, n_stalled, n_singular, n_conv = newton.args
    assert n_singular == (tiny | ~finite).sum()
    assert n_off + n_stalled + n_singular == n_seeds == z1.size
    assert n_conv == 0


TORUS_PQ = [(p, q) for p in range(2, 6) for q in range(p + 1, 10)
            if math.gcd(p, q) == 1]


@pytest.mark.parametrize("p,q", TORUS_PQ)
def test_search_finds_milnor_delta(p, q):
    # a generic small perturbation of z -> (z^p, z^q) has (p-1)(q-1)/2
    # double points near 0, Milnor's delta of the T(p, q) singularity
    w = _complex_curve(p, q)
    for seed in (1, 2):
        member = bk.sample_generic(w, 0.005, seed)
        dps = bk.find_double_points(member.deformed, 0.9, 48)
        assert len(dps) == (p - 1) * (q - 1) // 2


def _is_transverse_recomputed(dp, w) -> bool:
    """The verdict from a freshly built frame determinant, kept as the
    reference for DoublePoint.transverse, which reads the stored one."""
    fx1, fy1 = bk.jacobian(w, dp.z1)
    fx2, fy2 = bk.jacobian(w, dp.z2)
    cols = np.stack([fx1, fy1, fx2, fy2], axis=-1)
    denom = float(np.prod(np.linalg.norm(cols, axis=0)))
    if denom == 0.0:
        return False
    return abs(float(np.linalg.det(cols))) > 1e-6 * denom


class TestTransversality:
    def test_stored_determinant_gives_recomputed_verdict(self, sampled_members):
        # every double point of the 24 sampled members at radius 0.5, grid 32
        judged = [(dp, fm.deformed) for fm in sampled_members.values()
                  for dp in bk.find_double_points(fm.deformed, 0.5, 32)]
        assert judged
        for dp, w in judged:
            assert dp.transverse == _is_transverse_recomputed(dp, w)

    def test_perturbed_cusp_transverse(self, cusp_member):
        dps = bk.find_double_points(cusp_member.deformed, 0.5, 48)
        assert all(dp.transverse for dp in dps)

    def test_tangential_plane_pair_rejected(self, flat):
        # both frames span the same plane: rank 2, determinant 0
        det, norms = intersect._frame(flat, 0.1 + 0j, 0.3 + 0j)
        assert det == 0.0 and norms > 0.0
        assert not DoublePoint(0.1 + 0j, 0.3 + 0j, np.zeros(4), 0.0, det,
                               norms).transverse
        # a zero frame column: no verdict but False
        assert not DoublePoint(0j, 1j, np.zeros(4), 0.0, 0.0, 0.0).transverse

    def test_scale_invariance(self, cusp, cusp_member):
        dps = bk.find_double_points(cusp_member.deformed, 0.5, 48)
        # globally rescaled map: its double points carry the rescaled
        # determinant, and get the same normalized verdict
        scaled = bk.load([10.0 * p for p in cusp_member.deformed.fprime])
        dps_scaled = bk.find_double_points(scaled, 0.5, 48)
        assert len(dps_scaled) == len(dps)
        for dp, dp_scaled in zip(dps, dps_scaled):
            assert abs(dp_scaled.transversality_det
                       - 1e4 * dp.transversality_det) \
                <= 1e-6 * abs(dp_scaled.transversality_det)
            assert dp.transverse == dp_scaled.transverse


class TestBruteForce:
    def test_counts_match_newton(self, oracle_counts):
        assert oracle_counts["cusp"] == 1
        assert oracle_counts["torus"] == 2
        assert oracle_counts["flat"] == 0

    @pytest.mark.parametrize("stem, orientation, seed, count", [
        ("four_function", +1, 3, 8), ("mixed_strong", -1, 1, 6),
        ("torus5", +1, 3, 2)])
    def test_sampled_member_counts(self, stem, orientation, seed, count,
                                   sampled_members):
        # the scan's own counts at fine_n 200, pinned so that a rewrite of
        # the scan keeps them; they are not the members' delta: on the two
        # non-holomorphic members the scan finds more double points than
        # the Newton search, and finer grids move them (four_function gives
        # 4 at fine_n 400, mixed_strong 2 at 300)
        w = sampled_members[stem, seed, orientation].deformed
        assert bk.brute_force_double_points(w, 0.5, 200) == count


def test_double_point_json(cusp_member):
    dp = bk.find_double_points(cusp_member.deformed, 0.5, 48)[0]
    d = dp.to_json_dict()
    assert set(d) == {"z1", "z2", "image", "residual", "transversality_det"}
    assert len(d["image"]) == 4
